"""The display-budget visibility kernel vs the dense reference resolver.

``resolve_episode_visibility`` and ``resolve_rooms_visibility`` read only
the rendered avatars' adjacency rows and take the recommendation-
independent physical terms as precomputed masks.  Every row they return
must equal the dense oracles ``resolve_visibility`` and ``occlusion_rate``
on that frame exactly, for MR and VR targets, render masks that include
the target and forced users, render widths from 0 to wider than the
display budget, and graphs built with ``view_limit`` and ``fov``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    BatchedOcclusionConverter,
    forced_presence_mask,
    physical_cover,
    resolve_episode_visibility,
    resolve_rooms_visibility,
)
from tests.oracles import OcclusionGraphConverter, occlusion_rate, \
    resolve_visibility

MAX_RENDER = 8

CONVERTERS = st.sampled_from([
    {},
    {"view_limit": 3.0},
    {"fov": 2.0},
    {"view_limit": 4.0, "fov": 1.5},
])


@st.composite
def scenes(draw):
    """``(batch, count, kwargs, rng, width, target_mr)`` for one case."""
    count = draw(st.integers(2, 24))
    batch = draw(st.integers(1, 6))
    kwargs = draw(CONVERTERS)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    width = draw(st.sampled_from([0, 1, 3, MAX_RENDER, MAX_RENDER + 6]))
    target_mr = draw(st.lists(st.booleans(), min_size=batch,
                              max_size=batch))
    return batch, count, kwargs, rng, width, target_mr


def render_masks(rng, forced, targets, width):
    """``width`` random users per row, plus the target and a forced user
    on some rows (the resolvers must ignore the one and treat the other
    as present either way)."""
    batch, count = forced.shape
    rendered = np.zeros((batch, count), dtype=bool)
    for b in range(batch):
        rendered[b, rng.choice(count, min(width, count), replace=False)] = True
        if rng.random() < 0.5:
            rendered[b, targets[b]] = True
        if forced[b].any() and rng.random() < 0.5:
            rendered[b, rng.choice(np.nonzero(forced[b])[0])] = True
    return rendered


def frame_masks(graphs, forced):
    """``(blocked, forced_occluded)`` as frame assembly computes them."""
    cover = physical_cover([graph.adjacency for graph in graphs],
                           np.stack([graph.distances for graph in graphs]),
                           forced, graphs[0].body_radius)
    return cover & ~forced, cover & forced


def assert_rows_match_dense(graphs, rendered, forced, visible, rates):
    assert visible.shape == rendered.shape
    assert rates.shape == (len(graphs),)
    for b, graph in enumerate(graphs):
        np.testing.assert_array_equal(
            visible[b], resolve_visibility(graph, rendered[b], forced[b]))
        assert rates[b] == occlusion_rate(graph, rendered[b], forced[b])


@settings(max_examples=60, deadline=None)
@given(scenes())
def test_rooms_kernel_matches_dense_row_by_row(scene):
    """A mixed MR/VR batch of rooms, one target each."""
    rooms, count, kwargs, rng, width, target_mr = scene
    positions = rng.uniform(-4, 4, size=(rooms, count, 2))
    targets = rng.integers(0, count, size=rooms)
    interfaces = rng.random((rooms, count)) < 0.6
    interfaces[np.arange(rooms), targets] = target_mr
    forced = np.stack([forced_presence_mask(interfaces[b], targets[b])
                       for b in range(rooms)])
    graphs = BatchedOcclusionConverter(**kwargs).convert_rooms(
        positions, targets, facing=0.7)
    rendered = render_masks(rng, forced, targets, width)

    visible, rates = resolve_rooms_visibility(
        graphs, rendered, forced, *frame_masks(graphs, forced))
    assert_rows_match_dense(graphs, rendered, forced, visible, rates)


@settings(max_examples=60, deadline=None)
@given(scenes())
def test_episode_kernel_matches_dense_step_by_step(scene):
    """One target's steps, graphs from the scalar converter."""
    steps, count, kwargs, rng, width, target_mr = scene
    trajectory = rng.uniform(-4, 4, size=(steps, count, 2))
    target = int(rng.integers(0, count))
    interfaces = rng.random(count) < 0.6
    interfaces[target] = target_mr[0]
    forced = forced_presence_mask(interfaces, target)
    converter = OcclusionGraphConverter(**kwargs)
    graphs = [converter.convert(trajectory[t], target, facing=0.7)
              for t in range(steps)]
    per_step = np.broadcast_to(forced, (steps, count))
    rendered = render_masks(rng, per_step, [target] * steps, width)

    visible, rates = resolve_episode_visibility(
        graphs, rendered, forced, *frame_masks(graphs, per_step))
    assert_rows_match_dense(graphs, rendered, per_step, visible, rates)


def test_rooms_kernel_accepts_an_empty_batch():
    empty = np.zeros((0, 7), dtype=bool)
    visible, rates = resolve_rooms_visibility([], empty, empty, empty, empty)
    assert visible.shape == (0, 7)
    assert visible.dtype == bool
    assert rates.shape == (0,)
