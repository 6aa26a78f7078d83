"""Property-based tests on pipeline-level invariants (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AfterProblem, evaluate_episode, step_utility
from repro.datasets import RoomConfig, generate_timik_room
from repro.geometry import resolve_visibility
from repro.models import RandomRecommender
from tests.oracles import OcclusionGraphConverter, build_frame, \
    occlusion_rate


@st.composite
def scene_strategy(draw):
    """A random small scene: positions, interfaces, utilities."""
    count = draw(st.integers(4, 12))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0, 6, size=(count, 2))
    interfaces = rng.random(count) < 0.5
    preference = rng.random(count)
    presence = rng.random(count)
    preference[0] = presence[0] = 0.0
    return positions, interfaces, preference, presence


@settings(max_examples=40, deadline=None)
@given(scene_strategy(), st.integers(0, 2 ** 16))
def test_visibility_subset_of_present(scene, render_seed):
    positions, interfaces, preference, presence = scene
    graph = OcclusionGraphConverter().convert(positions, 0)
    frame = build_frame(0, 0, graph, preference, presence, interfaces)
    rng = np.random.default_rng(render_seed)
    rendered = rng.random(len(positions)) < 0.5
    visible = resolve_visibility(graph, rendered, frame.forced)
    present = (rendered | frame.forced).copy()
    present[0] = False
    assert (visible <= present).all()   # visible => present
    assert not visible[0]


@settings(max_examples=40, deadline=None)
@given(scene_strategy(), st.integers(0, 2 ** 16))
def test_occlusion_rate_bounds(scene, render_seed):
    positions, interfaces, preference, presence = scene
    graph = OcclusionGraphConverter().convert(positions, 0)
    frame = build_frame(0, 0, graph, preference, presence, interfaces)
    rng = np.random.default_rng(render_seed)
    rendered = rng.random(len(positions)) < 0.5
    rate = occlusion_rate(graph, rendered, frame.forced)
    assert 0.0 <= rate <= 1.0


@settings(max_examples=40, deadline=None)
@given(scene_strategy(), st.integers(0, 2 ** 16))
def test_step_utility_nonnegative_and_bounded(scene, render_seed):
    positions, interfaces, preference, presence = scene
    graph = OcclusionGraphConverter().convert(positions, 0)
    frame = build_frame(0, 0, graph, preference, presence, interfaces)
    rng = np.random.default_rng(render_seed)
    rendered = rng.random(len(positions)) < 0.5
    rendered[0] = False
    visible = resolve_visibility(graph, rendered, frame.forced)
    step = step_utility(frame.preference, frame.presence, visible,
                        visible, rendered)
    assert 0.0 <= step.preference <= frame.preference.sum() + 1e-9
    assert 0.0 <= step.presence <= frame.presence.sum() + 1e-9


@settings(max_examples=40, deadline=None)
@given(scene_strategy())
def test_single_rendered_vr_user_for_vr_target_visible(scene):
    """With no physical users and a single rendered avatar, that avatar
    is always clearly seen (no one can clutter it)."""
    positions, _interfaces, preference, presence = scene
    interfaces = np.zeros(len(positions), dtype=bool)  # all VR
    graph = OcclusionGraphConverter().convert(positions, 0)
    frame = build_frame(0, 0, graph, preference, presence, interfaces)
    rendered = np.zeros(len(positions), dtype=bool)
    rendered[1] = True
    visible = resolve_visibility(graph, rendered, frame.forced)
    assert visible[1]


@settings(max_examples=40, deadline=None)
@given(scene_strategy(), st.integers(0, 2 ** 16))
def test_adding_avatars_never_reveals_others(scene, render_seed):
    """Avatar clutter is monotone: rendering an extra avatar can only
    hide previously visible avatars, never reveal them."""
    positions, _interfaces, preference, presence = scene
    interfaces = np.zeros(len(positions), dtype=bool)  # all virtual
    graph = OcclusionGraphConverter().convert(positions, 0)
    frame = build_frame(0, 0, graph, preference, presence, interfaces)
    rng = np.random.default_rng(render_seed)
    rendered = rng.random(len(positions)) < 0.4
    rendered[0] = False
    extra = rendered.copy()
    hidden_users = np.nonzero(~rendered)[0]
    hidden_users = hidden_users[hidden_users != 0]
    if hidden_users.size == 0:
        return
    extra[hidden_users[0]] = True
    before = resolve_visibility(graph, rendered, frame.forced)
    after = resolve_visibility(graph, extra, frame.forced)
    # Every originally-rendered user visible after must be visible before.
    assert (after[rendered] <= before[rendered]).all()


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 500), st.integers(2, 4))
def test_random_room_episode_is_finite(seed, budget):
    room = generate_timik_room(RoomConfig(num_users=12, num_steps=4),
                               seed=seed)
    problem = AfterProblem(room, target=0, max_render=budget)
    result = evaluate_episode(problem, RandomRecommender(seed=seed))
    assert np.isfinite(result.after_utility)
    assert (result.recommendations.sum(axis=1) <= budget).all()
