"""Golden equivalence: batched converter vs per-target converter.

The batched all-targets converter promises *exact* float64 equality with
:meth:`OcclusionGraphConverter.convert` — adjacency, distances, centers
and half-widths — for every target, including the ``view_limit`` and
``fov`` variants.  These tests pin that contract.
"""

import numpy as np
import pytest

from repro.geometry import (
    BatchedOcclusionConverter,
    DynamicOcclusionGraph,
    OcclusionGraphConverter,
)


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
    frame = batched.convert_frame(positions, targets, facing=0.7)
    for slot, target in enumerate(targets):
        _assert_graphs_equal(reference.convert(positions, int(target),
                                               facing=0.7),
                             frame.graph(slot))


def test_convert_frame_handles_coincident_positions():
    positions = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    reference = OcclusionGraphConverter()
    frame = BatchedOcclusionConverter().convert_frame(positions, [0, 1, 2, 3])
    for slot, target in enumerate(range(4)):
        _assert_graphs_equal(reference.convert(positions, target),
                             frame.graph(slot))


@pytest.mark.parametrize("depth", [2, 3])
def test_convert_trajectory_matches_per_target(depth):
    rng = np.random.default_rng(7)
    horizon, count = 6, 15
    trajectory = rng.uniform(-4, 4, size=(horizon, count, depth))
    targets = [0, 4, 11]

    reference = OcclusionGraphConverter()
    snapshot_lists = BatchedOcclusionConverter().convert_trajectory(
        trajectory, targets)
    for slot, target in enumerate(targets):
        expected = reference.convert_trajectory(trajectory, target)
        assert len(snapshot_lists[slot]) == horizon
        for ref_graph, batched_graph in zip(expected, snapshot_lists[slot]):
            _assert_graphs_equal(ref_graph, batched_graph)


def test_convert_dogs_matches_from_trajectory():
    rng = np.random.default_rng(11)
    trajectory = rng.uniform(-3, 3, size=(5, 12, 2))
    targets = [2, 9]
    converter = OcclusionGraphConverter()
    dogs = BatchedOcclusionConverter.like(converter).convert_dogs(
        trajectory, targets)
    assert sorted(dogs) == targets
    for target in targets:
        expected = DynamicOcclusionGraph.from_trajectory(
            trajectory, target, converter)
        assert len(dogs[target]) == len(expected)
        for ref_graph, batched_graph in zip(expected, dogs[target]):
            _assert_graphs_equal(ref_graph, batched_graph)


def test_small_kernel_chunks_match_unchunked():
    """Chunked kernel workspaces must not change any value."""
    import repro.geometry.batched as batched_module

    rng = np.random.default_rng(3)
    positions = rng.uniform(-5, 5, size=(20, 2))
    targets = np.arange(20)
    full = BatchedOcclusionConverter().convert_frame(positions, targets)

    original = batched_module._KERNEL_WORKSPACE_ELEMENTS
    batched_module._KERNEL_WORKSPACE_ELEMENTS = 1   # 1 target per chunk
    try:
        chunked = BatchedOcclusionConverter().convert_frame(positions,
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
    frame = converter.convert_frame(positions[0], range(25), facing=0.7)
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
        converter.convert_frame(positions, [0, 4])
    with pytest.raises(IndexError):
        converter.convert_trajectory(np.zeros((2, 4, 2)), [-1])
    with pytest.raises(ValueError):
        converter.convert_trajectory(np.zeros((4, 2)), [0])


def test_multi_target_graphs_container():
    rng = np.random.default_rng(5)
    positions = rng.uniform(-2, 2, size=(8, 2))
    frame = BatchedOcclusionConverter().convert_frame(positions, [1, 6])
    assert frame.num_targets == 2
    graphs = frame.graphs()
    assert [g.target for g in graphs] == [1, 6]
    # graph() returns views over the batched arrays, not copies
    assert graphs[0].adjacency.base is frame.adjacency
