"""The visibility kernel at B = 1 and per episode vs the dense oracles.

``resolve_visibility_with_occlusion`` here is one frame through the
production kernel (``resolve_rooms_visibility`` with one row), returning
visibility and occlusion rate together; ``resolve_visibility`` and
``occlusion_rate`` are the dense standalone oracles.
"""

import numpy as np
import pytest

from repro.geometry import (
    forced_presence_mask,
    physical_cover,
    resolve_episode_visibility,
    resolve_rooms_visibility,
)
from tests.oracles import OcclusionGraphConverter, occlusion_rate, \
    resolve_visibility


def resolve_visibility_with_occlusion(graph, rendered, forced=None):
    """``(visible, rate)`` for one frame from the production kernel."""
    if forced is None:
        forced = np.zeros(len(rendered), dtype=bool)
    cover = physical_cover([graph.adjacency], graph.distances[None],
                           forced[None], graph.body_radius)
    visible, rates = resolve_rooms_visibility(
        [graph], np.asarray(rendered)[None], forced[None], cover & ~forced,
        cover & forced)
    return visible[0], rates[0]


def random_scene(rng, count):
    positions = rng.uniform(-4, 4, size=(count, 2))
    target = int(rng.integers(0, count))
    graph = OcclusionGraphConverter().convert(positions, target)
    interfaces_mr = rng.random(count) < 0.5
    forced = forced_presence_mask(interfaces_mr, target)
    rendered = rng.random(count) < 0.3
    return graph, rendered, forced


@pytest.mark.parametrize("seed", range(6))
def test_combined_resolution_matches_standalone(seed):
    rng = np.random.default_rng(seed)
    graph, rendered, forced = random_scene(rng, int(rng.integers(3, 25)))
    visible, rate = resolve_visibility_with_occlusion(graph, rendered, forced)
    np.testing.assert_array_equal(
        visible, resolve_visibility(graph, rendered, forced))
    assert rate == occlusion_rate(graph, rendered, forced)


def test_combined_resolution_without_forced_mask():
    rng = np.random.default_rng(9)
    graph, rendered, _ = random_scene(rng, 12)
    visible, rate = resolve_visibility_with_occlusion(graph, rendered)
    np.testing.assert_array_equal(visible,
                                  resolve_visibility(graph, rendered))
    assert rate == occlusion_rate(graph, rendered)


def test_combined_resolution_empty_rendering():
    rng = np.random.default_rng(1)
    graph, _, forced = random_scene(rng, 8)
    nothing = np.zeros(8, dtype=bool)
    visible, rate = resolve_visibility_with_occlusion(graph, nothing, forced)
    assert rate == 0.0
    np.testing.assert_array_equal(
        visible, resolve_visibility(graph, nothing, forced))


@pytest.mark.parametrize("seed", range(4))
def test_episode_resolution_matches_per_step(seed):
    rng = np.random.default_rng(seed + 100)
    count = int(rng.integers(4, 20))
    horizon = int(rng.integers(1, 7))
    trajectory = rng.uniform(-4, 4, size=(horizon, count, 2))
    target = int(rng.integers(0, count))
    converter = OcclusionGraphConverter()
    graphs = [converter.convert(trajectory[t], target)
              for t in range(horizon)]
    forced = forced_presence_mask(rng.random(count) < 0.5, target)
    rendered = rng.random((horizon, count)) < 0.3

    cover = physical_cover([graph.adjacency for graph in graphs],
                           np.stack([graph.distances for graph in graphs]),
                           np.broadcast_to(forced, rendered.shape),
                           graphs[0].body_radius)
    visible, rates = resolve_episode_visibility(graphs, rendered, forced,
                                                cover & ~forced,
                                                cover & forced)
    assert visible.shape == (horizon, count)
    assert rates.shape == (horizon,)
    for t in range(horizon):
        np.testing.assert_array_equal(
            visible[t], resolve_visibility(graphs[t], rendered[t], forced))
        assert rates[t] == occlusion_rate(graphs[t], rendered[t], forced)
