"""Golden equivalence: the batched converter vs the dense oracle.

Every production occlusion graph comes from
:meth:`BatchedOcclusionConverter.convert_rooms`, either directly (rows of
``(positions, target)``: one frame's targets, or one target per room)
or through :meth:`~BatchedOcclusionConverter.convert_dogs` (a
trajectory's ``(step, target)`` rows).  It promises *exact* float64
equality with the dense per-target oracle
:meth:`tests.oracles.OcclusionGraphConverter.convert` — adjacency,
distances, centers and half-widths — for every row, including the
``view_limit`` and ``fov`` variants.  These tests pin that contract.
"""

import math

import numpy as np
import pytest

from repro.geometry import (
    BatchedOcclusionConverter,
    DynamicOcclusionGraph,
)
from tests.oracles import OcclusionGraphConverter


def convert_frame(converter, positions, targets, facing=0.0):
    """All ``targets``' graphs at one instant: one row per target."""
    positions = np.asarray(positions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64).ravel()
    return converter.convert_rooms(
        np.broadcast_to(positions, (targets.size,) + positions.shape),
        targets, facing=facing)


def _assert_graphs_equal(reference, batched):
    assert reference.target == batched.target
    np.testing.assert_array_equal(reference.adjacency, batched.adjacency)
    np.testing.assert_array_equal(reference.distances, batched.distances)
    np.testing.assert_array_equal(reference.centers, batched.centers)
    np.testing.assert_array_equal(reference.half_widths, batched.half_widths)
    assert reference.body_radius == batched.body_radius


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kwargs", [
    {},
    {"body_radius": 0.45},
    {"view_limit": 4.0},
    {"fov": 2.0},
    {"view_limit": 3.0, "fov": 1.5},
])
def test_convert_frame_matches_per_target(seed, kwargs):
    rng = np.random.default_rng(seed)
    count = int(rng.integers(3, 30))
    positions = rng.uniform(-5, 5, size=(count, 2))
    targets = rng.choice(count, size=min(count, 7), replace=False)

    reference = OcclusionGraphConverter(**kwargs)
    batched = BatchedOcclusionConverter(**kwargs)
    frame = convert_frame(batched, positions, targets, facing=0.7)
    for slot, target in enumerate(targets):
        _assert_graphs_equal(reference.convert(positions, int(target),
                                               facing=0.7),
                             frame[slot])


def test_convert_frame_handles_coincident_positions():
    positions = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    reference = OcclusionGraphConverter()
    frame = convert_frame(BatchedOcclusionConverter(), positions,
                          [0, 1, 2, 3])
    for slot, target in enumerate(range(4)):
        _assert_graphs_equal(reference.convert(positions, target),
                             frame[slot])


@pytest.mark.parametrize("depth", [2, 3])
def test_convert_trajectory_matches_per_target(depth):
    rng = np.random.default_rng(7)
    horizon, count = 6, 15
    trajectory = rng.uniform(-4, 4, size=(horizon, count, depth))
    targets = [0, 4, 11]

    reference = OcclusionGraphConverter()
    dogs = BatchedOcclusionConverter().convert_dogs(trajectory, targets)
    for target in targets:
        expected = reference.convert_trajectory(trajectory, target)
        assert len(dogs[target]) == horizon
        for ref_graph, batched_graph in zip(expected, dogs[target]):
            _assert_graphs_equal(ref_graph, batched_graph)


def test_convert_dogs_matches_from_trajectory():
    rng = np.random.default_rng(11)
    trajectory = rng.uniform(-3, 3, size=(5, 12, 2))
    targets = [2, 9]
    converter = OcclusionGraphConverter()
    dogs = BatchedOcclusionConverter().convert_dogs(trajectory, targets)
    assert sorted(dogs) == targets
    for target in targets:
        expected = DynamicOcclusionGraph(
            target, converter.convert_trajectory(trajectory, target))
        assert len(dogs[target]) == len(expected)
        for ref_graph, batched_graph in zip(expected, dogs[target]):
            _assert_graphs_equal(ref_graph, batched_graph)


def test_small_kernel_chunks_match_unchunked():
    """Chunked kernel workspaces must not change any value."""
    import repro.geometry.batched as batched_module

    rng = np.random.default_rng(3)
    positions = rng.uniform(-5, 5, size=(20, 2))
    targets = np.arange(20)
    full = convert_frame(BatchedOcclusionConverter(), positions, targets)

    original = batched_module._KERNEL_WORKSPACE_ELEMENTS
    batched_module._KERNEL_WORKSPACE_ELEMENTS = 1   # 1 target per chunk
    try:
        chunked = convert_frame(BatchedOcclusionConverter(), positions,
                                targets)
    finally:
        batched_module._KERNEL_WORKSPACE_ELEMENTS = original
    np.testing.assert_array_equal(full.adjacency, chunked.adjacency)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kwargs", [
    {},
    {"body_radius": 0.45},
    {"view_limit": 4.0},
    {"fov": 2.0},
    {"view_limit": 3.0, "fov": 1.5},
])
def test_convert_rooms_matches_per_room_convert(seed, kwargs):
    """Stacked per-room kernel == scalar convert, room by room."""
    rng = np.random.default_rng(seed)
    rooms, count = int(rng.integers(1, 9)), int(rng.integers(3, 20))
    positions = rng.uniform(-5, 5, size=(rooms, count, 2))
    targets = rng.integers(0, count, size=rooms)

    reference = OcclusionGraphConverter(**kwargs)
    graphs = BatchedOcclusionConverter(**kwargs).convert_rooms(
        positions, targets, facing=0.7)
    assert len(graphs) == rooms
    for b in range(rooms):
        _assert_graphs_equal(
            reference.convert(positions[b], int(targets[b]), facing=0.7),
            graphs[b])


@pytest.mark.parametrize("kwargs", [
    {},
    {"view_limit": 3.0},
    {"fov": 2.0},
    {"view_limit": 3.0, "fov": 1.5},
])
def test_batched_adjacency_is_symmetric(kwargs):
    """The visibility kernel reads adjacency rows in place of columns."""
    rng = np.random.default_rng(11)
    positions = rng.uniform(-5, 5, size=(4, 25, 2))
    converter = BatchedOcclusionConverter(**kwargs)
    rooms = converter.convert_rooms(positions, [0, 3, 9, 24], facing=0.7)
    np.testing.assert_array_equal(rooms.adjacency,
                                  rooms.adjacency.transpose(0, 2, 1))
    frame = convert_frame(converter, positions[0], range(25), facing=0.7)
    np.testing.assert_array_equal(frame.adjacency,
                                  frame.adjacency.transpose(0, 2, 1))


def test_convert_rooms_chunked_kernel_matches():
    """Room batches larger than one kernel chunk stay bit-identical."""
    import repro.geometry.batched as batched_module

    rng = np.random.default_rng(13)
    positions = rng.uniform(-4, 4, size=(12, 10, 2))
    targets = rng.integers(0, 10, size=12)
    full = BatchedOcclusionConverter().convert_rooms(positions, targets)

    original = batched_module._KERNEL_WORKSPACE_ELEMENTS
    batched_module._KERNEL_WORKSPACE_ELEMENTS = 1   # 1 room per chunk
    try:
        chunked = BatchedOcclusionConverter().convert_rooms(positions,
                                                            targets)
    finally:
        batched_module._KERNEL_WORKSPACE_ELEMENTS = original
    for a, b in zip(full, chunked):
        _assert_graphs_equal(a, b)


def test_convert_rooms_rejects_bad_shapes():
    converter = BatchedOcclusionConverter()
    with pytest.raises(ValueError):
        converter.convert_rooms(np.zeros((4, 2)), [0])
    with pytest.raises(ValueError):
        converter.convert_rooms(np.zeros((2, 4, 2)), [0])   # 2 rooms, 1 target
    with pytest.raises(IndexError):
        converter.convert_rooms(np.zeros((2, 4, 2)), [0, 4])


def test_rejects_out_of_range_targets():
    positions = np.zeros((4, 2))
    converter = BatchedOcclusionConverter()
    with pytest.raises(IndexError):
        convert_frame(converter, positions, [0, 4])
    with pytest.raises(IndexError):
        converter.convert_dogs(np.zeros((2, 4, 2)), [-1])
    with pytest.raises(ValueError):
        converter.convert_dogs(np.zeros((4, 2)), [0])


def test_multi_target_graphs_container():
    """One frame's targets as rows: per-target views of one batch."""
    rng = np.random.default_rng(5)
    positions = rng.uniform(-2, 2, size=(8, 2))
    frame = convert_frame(BatchedOcclusionConverter(), positions, [1, 6])
    assert len(frame) == 2
    assert [g.target for g in frame] == [1, 6]
    # the graphs are views over the batched arrays, not copies
    assert frame[0].adjacency.base is frame.adjacency
    dogs = BatchedOcclusionConverter().convert_dogs(positions[None], [1, 6])
    assert dogs[1][0].adjacency.base is dogs[6][0].adjacency.base


@pytest.mark.parametrize("kwargs", [
    {"body_radius": 0.0},
    {"body_radius": -0.25},
    {"view_limit": 0.0},
    {"view_limit": -1.0},
    {"fov": 0.0},
    {"fov": -1.0},
    {"fov": 2.0 * math.pi + 1e-9},
])
def test_converter_rejects_invalid_parameters(kwargs):
    with pytest.raises(ValueError):
        BatchedOcclusionConverter(**kwargs)


def test_converter_accepts_boundary_parameters():
    converter = BatchedOcclusionConverter(body_radius=1e-9, view_limit=1e-9,
                                          fov=2.0 * math.pi)
    assert converter.fov == 2.0 * math.pi


def assert_dogs_match_oracle(trajectory, targets, **kwargs):
    """Every (step, target) snapshot of ``convert_dogs`` == the oracle."""
    dogs = BatchedOcclusionConverter(**kwargs).convert_dogs(trajectory,
                                                            targets)
    reference = OcclusionGraphConverter(**kwargs)
    assert sorted(dogs) == sorted(int(target) for target in targets)
    for target in targets:
        assert len(dogs[target]) == len(trajectory)
        for t, graph in enumerate(dogs[target]):
            _assert_graphs_equal(reference.convert(trajectory[t], target),
                                 graph)
    return dogs


def test_convert_dogs_single_user_is_the_target_alone():
    trajectory = np.random.default_rng(2).uniform(-1, 1, size=(4, 1, 2))
    dogs = assert_dogs_match_oracle(trajectory, [0])
    for graph in dogs[0]:
        assert graph.adjacency.shape == (1, 1)
        assert not graph.adjacency.any()
        assert graph.distances[0] == 0.0


def test_convert_dogs_coincident_users_fill_half_the_view():
    frame = np.array([[0.0, 0.0], [0.0, 0.0], [0.1, 0.0], [3.0, 3.0],
                      [3.0, 3.0]])
    trajectory = np.stack([frame, frame + 0.5, frame[::-1].copy()])
    dogs = assert_dogs_match_oracle(trajectory, range(5))
    assert dogs[0][0].half_widths[1] == math.pi / 2
    assert dogs[0][0].half_widths[2] == math.pi / 2
    assert dogs[3][0].half_widths[4] == math.pi / 2


def test_convert_dogs_projects_three_column_trajectories():
    rng = np.random.default_rng(17)
    floor = rng.uniform(-4, 4, size=(5, 14, 2))
    points = np.stack([floor[..., 0], rng.uniform(0, 2, size=(5, 14)),
                       floor[..., 1]], axis=-1)
    dogs = assert_dogs_match_oracle(points, [0, 6, 13])
    flat = BatchedOcclusionConverter().convert_dogs(floor, [0, 6, 13])
    for target in (0, 6, 13):
        for a, b in zip(dogs[target], flat[target]):
            _assert_graphs_equal(a, b)


@pytest.mark.parametrize("kwargs", [
    {"view_limit": 3.0},
    {"fov": 2.0},
    {"view_limit": 3.0, "fov": 1.5},
    {"body_radius": 0.45, "fov": 2.0 * math.pi},
])
def test_convert_dogs_view_limit_and_fov_match_oracle(kwargs):
    rng = np.random.default_rng(23)
    trajectory = rng.uniform(-5, 5, size=(6, 18, 2))
    assert_dogs_match_oracle(trajectory, [0, 5, 17], **kwargs)
