"""Single-pass and episode-level visibility vs the standalone functions."""

import numpy as np
import pytest

from repro.geometry import (
    OcclusionGraphConverter,
    forced_presence_mask,
    occlusion_rate,
    physical_cover,
    resolve_episode_visibility,
    resolve_visibility,
    resolve_visibility_with_occlusion,
)


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
        step_visible, step_rate = resolve_visibility_with_occlusion(
            graphs[t], rendered[t], forced)
        np.testing.assert_array_equal(visible[t], step_visible)
        assert rates[t] == step_rate
