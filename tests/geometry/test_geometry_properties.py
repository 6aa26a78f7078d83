"""Property-based tests on the geometric substrate (hypothesis)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    BatchedOcclusionConverter,
    arc_of_user,
    structural_delta,
)

from tests.oracles import OcclusionGraphConverter, dense_structural_delta


@st.composite
def positions_strategy(draw, min_users=3, max_users=12):
    count = draw(st.integers(min_users, max_users))
    seed = draw(st.integers(0, 100_000))
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 8, size=(count, 2))


@settings(max_examples=50, deadline=None)
@given(positions_strategy())
def test_occlusion_graph_invariants(positions):
    graph = OcclusionGraphConverter().convert(positions, 0)
    adjacency = graph.adjacency
    # Symmetric, no self-loops, isolated target.
    np.testing.assert_array_equal(adjacency, adjacency.T)
    assert not adjacency.diagonal().any()
    assert not adjacency[0].any()
    # Distances non-negative, zero only at the target.
    assert graph.distances[0] == 0.0
    assert (graph.distances[1:] >= 0.0).all()
    # Half-widths in (0, pi/2] for non-target users.
    assert (graph.half_widths[1:] > 0.0).all()
    assert (graph.half_widths[1:] <= math.pi / 2 + 1e-12).all()


@settings(max_examples=50, deadline=None)
@given(positions_strategy(), st.floats(0.05, 0.3))
def test_translation_invariance(positions, shift):
    """Moving the whole scene leaves the occlusion graph unchanged."""
    converter = OcclusionGraphConverter()
    base = converter.convert(positions, 0)
    moved = converter.convert(positions + shift, 0)
    np.testing.assert_array_equal(base.adjacency, moved.adjacency)
    np.testing.assert_allclose(base.distances, moved.distances, atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(positions_strategy())
def test_rotation_invariance_of_edges(positions):
    """Rotating the scene about the target preserves arc overlaps
    (up to floating-point boundary cases, excluded by a margin)."""
    converter = OcclusionGraphConverter()
    base = converter.convert(positions, 0)
    angle = 0.7
    rotation = np.array([[math.cos(angle), -math.sin(angle)],
                         [math.sin(angle), math.cos(angle)]])
    rotated_positions = (positions - positions[0]) @ rotation.T + positions[0]
    rotated = converter.convert(rotated_positions, 0)

    from repro.geometry import angular_separation
    separation = angular_separation(base.centers[:, None],
                                    base.centers[None, :])
    margin = np.abs(separation - (base.half_widths[:, None]
                                  + base.half_widths[None, :]))
    decisive = margin > 1e-6
    np.testing.assert_array_equal(base.adjacency[decisive],
                                  rotated.adjacency[decisive])


@settings(max_examples=50, deadline=None)
@given(positions_strategy(), st.integers(0, 10_000))
def test_structural_delta_antisymmetry(positions, seed):
    """delta(A, B)[:, 1:] == -delta(B, A)[:, 1:]"""
    rng = np.random.default_rng(seed)
    other = rng.uniform(0, 8, size=positions.shape)
    converter = OcclusionGraphConverter()
    a = converter.convert(positions, 0).adjacency_float()
    b = converter.convert(other, 0).adjacency_float()
    forward = structural_delta(a, b)
    backward = structural_delta(b, a)
    np.testing.assert_array_equal(forward[:, 1:], -backward[:, 1:])
    np.testing.assert_array_equal(forward[:, 0], 1.0)


@st.composite
def binary_matrix_pair(draw):
    """Two random 0/1 ``(N, N)`` matrices, symmetric or not, N up to 300."""
    count = draw(st.integers(1, 300))
    symmetric = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pair = []
    for _ in range(2):
        matrix = (rng.random((count, count))
                  < draw(st.floats(0.0, 1.0))).astype(np.float64)
        if symmetric:
            matrix = np.triu(matrix, 1)
            matrix = matrix + matrix.T
        pair.append(matrix)
    return pair


@settings(max_examples=60, deadline=None)
@given(binary_matrix_pair())
def test_structural_delta_matches_dense_oracle_bytes(pair):
    """Degree-vector deltas are byte-equal to the dense ``A^2`` form."""
    current, previous = pair
    assert (structural_delta(current, previous).tobytes()
            == dense_structural_delta(current, previous).tobytes())
    assert (structural_delta(current).tobytes()
            == structural_delta(current, np.zeros_like(current)).tobytes()
            == dense_structural_delta(current,
                                      np.zeros_like(current)).tobytes())


@settings(max_examples=30, deadline=None)
@given(positions_strategy(min_users=4, max_users=8), st.integers(2, 5))
def test_dog_static_trajectory_has_constant_graphs(positions, steps):
    trajectory = np.stack([positions] * steps)
    dog = BatchedOcclusionConverter().convert_dogs(trajectory, [0])[0]
    np.testing.assert_array_equal(dog.edge_change_counts(), 0)
    for t in range(1, steps):
        np.testing.assert_array_equal(dog.adjacency(t), dog.adjacency(0))


@settings(max_examples=50, deadline=None)
@given(st.floats(0.3, 10.0), st.floats(-math.pi, math.pi),
       st.floats(0.05, 0.25))
def test_arc_width_monotone_in_distance(distance, bearing, radius):
    """A farther user subtends a smaller (or equal) arc."""
    target = np.zeros(2)
    near = np.array([distance * math.cos(bearing),
                     distance * math.sin(bearing)])
    far = near * 2.0
    arc_near = arc_of_user(target, near, radius)
    arc_far = arc_of_user(target, far, radius)
    assert arc_far.half_width <= arc_near.half_width + 1e-12
    assert arc_far.center == pytest.approx(arc_near.center, abs=1e-9)
