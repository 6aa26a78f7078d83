"""Tests for the occlusion-graph converter and dynamic occlusion graphs."""

import numpy as np
import pytest

from repro.geometry import (
    BatchedOcclusionConverter,
    DynamicOcclusionGraph,
    structural_delta,
)
from tests.oracles import OcclusionGraphConverter


def dog_from_trajectory(trajectory, target):
    """``target``'s DOG through the production converter."""
    return BatchedOcclusionConverter().convert_dogs(trajectory,
                                                    [target])[target]


def collinear_positions():
    """Target at origin; users 1 and 2 collinear behind each other; 3 aside."""
    return np.array([
        [0.0, 0.0],   # target
        [2.0, 0.0],   # near, east
        [4.0, 0.0],   # far, directly behind user 1
        [0.0, 3.0],   # north, clear
    ])


class TestConverter:
    def test_target_is_isolated(self):
        graph = OcclusionGraphConverter().convert(collinear_positions(), target=0)
        assert not graph.adjacency[0].any()
        assert not graph.adjacency[:, 0].any()

    def test_collinear_users_occlude(self):
        graph = OcclusionGraphConverter().convert(collinear_positions(), target=0)
        assert graph.adjacency[1, 2]

    def test_perpendicular_users_clear(self):
        graph = OcclusionGraphConverter().convert(collinear_positions(), target=0)
        assert not graph.adjacency[1, 3]
        assert not graph.adjacency[2, 3]

    def test_adjacency_symmetric(self):
        rng = np.random.default_rng(3)
        pos = rng.uniform(0, 10, size=(20, 2))
        graph = OcclusionGraphConverter().convert(pos, target=0)
        np.testing.assert_array_equal(graph.adjacency, graph.adjacency.T)

    def test_distances_from_target(self):
        graph = OcclusionGraphConverter().convert(collinear_positions(), target=0)
        np.testing.assert_allclose(graph.distances, [0.0, 2.0, 4.0, 3.0])

    def test_3d_positions_projected(self):
        pos3d = np.array([[0.0, 1.7, 0.0], [2.0, 1.6, 0.0],
                          [4.0, 1.8, 0.0], [0.0, 1.7, 3.0]])
        graph = OcclusionGraphConverter().convert(pos3d, target=0)
        assert graph.adjacency[1, 2]

    def test_view_limit_prunes_far_users(self):
        converter = OcclusionGraphConverter(view_limit=3.0)
        graph = converter.convert(collinear_positions(), target=0)
        assert not graph.adjacency[1, 2]  # user 2 beyond the 3 m limit

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            OcclusionGraphConverter(body_radius=0.0)
        with pytest.raises(ValueError):
            OcclusionGraphConverter(view_limit=-1.0)

    def test_invalid_target(self):
        with pytest.raises(IndexError):
            OcclusionGraphConverter().convert(collinear_positions(), target=9)

    def test_larger_bodies_create_more_edges(self):
        rng = np.random.default_rng(5)
        pos = rng.uniform(0, 10, size=(30, 2))
        small = OcclusionGraphConverter(body_radius=0.1).convert(pos, 0)
        large = OcclusionGraphConverter(body_radius=0.5).convert(pos, 0)
        assert large.num_edges >= small.num_edges

    def test_edges_and_degree_consistent(self):
        graph = OcclusionGraphConverter().convert(collinear_positions(), target=0)
        assert graph.num_edges == len(graph.edges())
        assert graph.degree().sum() == 2 * graph.num_edges

    def test_neighbors(self):
        graph = OcclusionGraphConverter().convert(collinear_positions(), target=0)
        np.testing.assert_array_equal(graph.neighbors(1), [2])

    def test_subgraph_adjacency_masks_rows_and_cols(self):
        graph = OcclusionGraphConverter().convert(collinear_positions(), target=0)
        mask = np.array([True, True, False, True])
        sub = graph.subgraph_adjacency(mask)
        assert not sub[2].any()
        assert not sub[:, 2].any()


class TestStructuralDelta:
    def test_no_change_gives_zero_deltas(self):
        adjacency = np.array([[0.0, 1], [1, 0]])
        delta = structural_delta(adjacency, adjacency)
        np.testing.assert_allclose(delta[:, 0], 1.0)
        np.testing.assert_allclose(delta[:, 1:], 0.0)

    def test_new_edge_raises_first_order(self):
        prev = np.zeros((3, 3))
        cur = np.zeros((3, 3))
        cur[0, 1] = cur[1, 0] = 1.0
        delta = structural_delta(cur, prev)
        np.testing.assert_allclose(delta[:, 1], [1.0, 1.0, 0.0])

    def test_second_order_counts_two_hop_change(self):
        prev = np.zeros((3, 3))
        cur = np.array([[0.0, 1, 0], [1, 0, 1], [0, 1, 0]])
        delta = structural_delta(cur, prev)
        # A^2 row sums: node 0 -> paths 0-1-0, 0-1-2 => 2
        np.testing.assert_allclose(delta[:, 2], [2.0, 2.0, 2.0])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            structural_delta(np.zeros((2, 2)), np.zeros((3, 3)))


class TestDynamicOcclusionGraph:
    def make_trajectory(self, steps=5):
        base = collinear_positions()
        frames = []
        for t in range(steps):
            frame = base.copy()
            frame[3, 0] += 0.1 * t  # user 3 drifts east
            frames.append(frame)
        return np.stack(frames)

    def test_from_trajectory_length(self):
        dog = dog_from_trajectory(self.make_trajectory(), 0)
        assert len(dog) == 5
        assert dog.horizon == 4

    def test_target_mismatch_raises(self):
        converter = OcclusionGraphConverter()
        snaps = [converter.convert(collinear_positions(), 0)]
        with pytest.raises(ValueError):
            DynamicOcclusionGraph(target=1, snapshots=snaps)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            DynamicOcclusionGraph(target=0, snapshots=[])

    def test_adjacency_before_start_is_zero(self):
        dog = dog_from_trajectory(self.make_trajectory(), 0)
        np.testing.assert_allclose(dog.adjacency(-1), 0.0)

    def test_delta_at_zero_equals_initial_structure(self):
        dog = dog_from_trajectory(self.make_trajectory(), 0)
        delta = dog.delta(0)
        np.testing.assert_allclose(delta[:, 1], dog.adjacency(0).sum(axis=1))

    def test_edge_change_counts_shape(self):
        dog = dog_from_trajectory(self.make_trajectory(), 0)
        assert dog.edge_change_counts().shape == (4,)

    def test_static_scene_has_no_changes(self):
        frames = np.stack([collinear_positions()] * 4)
        dog = dog_from_trajectory(frames, 0)
        np.testing.assert_array_equal(dog.edge_change_counts(), 0)

    def test_mean_edge_density_in_unit_interval(self):
        dog = dog_from_trajectory(self.make_trajectory(), 0)
        assert 0.0 <= dog.mean_edge_density() <= 1.0

    def test_iteration_yields_snapshots(self):
        dog = dog_from_trajectory(self.make_trajectory(), 0)
        assert all(snap.target == 0 for snap in dog)
