"""The episode walk, the per-step oracle and the session walk agree.

:func:`repro.core.evaluation.evaluate_episode` is the one offline path:
cached episode frames from the batched occlusion graphs, one visibility
resolution per episode.  Hypothesis draws rooms, MR and VR targets,
recommenders, block/allow lists, display budgets and single-frame
episodes, and checks it bit for bit against the per-step oracle
(``tests/oracles.py``) and against :func:`repro.serving.stream_episode`.
Two equalities the walk rests on are pinned directly: ``frame_at`` equals
a frame built around the dense converter's graph, and the room's lazy
DOG equals the dense converter's trajectory build.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AfterProblem, evaluate_episode
from repro.crowd.simulator import Trajectory
from repro.datasets import RoomConfig, generate_room
from repro.geometry import DynamicOcclusionGraph
from repro.models.baselines import MvAGCRecommender, NearestRecommender, \
    RandomRecommender, RenderAllRecommender
from repro.obs import PERF
from repro.serving import stream_episode
from tests.oracles import OcclusionGraphConverter, build_frame, \
    episode_oracle, frame_from_graph

from .test_episode_frames import FRAME_ARRAYS

DATASETS = ("timik", "smm", "hubs")


def assert_episodes_identical(expected, actual):
    np.testing.assert_array_equal(expected.recommendations,
                                  actual.recommendations)
    assert expected.after_utility == actual.after_utility
    assert expected.preference == actual.preference
    assert expected.presence == actual.presence
    assert expected.occlusion_rate == actual.occlusion_rate
    np.testing.assert_array_equal(expected.per_step_after,
                                  actual.per_step_after)


@st.composite
def cases(draw):
    """(room, target, problem kwargs, recommender factory) for one run."""
    dataset = draw(st.sampled_from(DATASETS))
    num_users = draw(st.integers(6, 14))
    room = generate_room(dataset,
                         RoomConfig(num_users=num_users,
                                    num_steps=draw(st.integers(1, 4))),
                         seed=draw(st.integers(0, 2 ** 16)))
    if draw(st.booleans()):
        # A single-frame episode (horizon 0).
        room = dataclasses.replace(
            room, trajectory=Trajectory(room.trajectory.positions[:1]),
            _dog_cache={}, _frame_cache={})
    mr_target = draw(st.booleans(), label="mr_target")
    pool = np.flatnonzero(room.interfaces_mr == mr_target)
    if pool.size == 0:
        pool = np.arange(num_users)
    target = int(draw(st.sampled_from(pool.tolist()), label="target"))
    others = [user for user in range(num_users) if user != target]
    kwargs = {"beta": draw(st.sampled_from((0.0, 0.3, 0.5, 1.0))),
              "max_render": draw(st.integers(1, 10))}
    lists = draw(st.sampled_from(("none", "block", "allow", "both")))
    if lists in ("block", "both"):
        kwargs["blocklist"] = draw(st.lists(st.sampled_from(others),
                                            max_size=4, unique=True))
    if lists in ("allow", "both"):
        kwargs["allowlist"] = draw(st.lists(
            st.integers(0, num_users - 1), max_size=num_users, unique=True))
    # RenderAll puts every user's visibility into the metrics.
    kind = draw(st.sampled_from(("random", "nearest", "mvagc",
                                 "render-all")))
    if kind == "random":
        seed = draw(st.integers(0, 2 ** 16), label="random_seed")
        factory = lambda: RandomRecommender(seed=seed)  # noqa: E731
    elif kind == "nearest":
        factory = NearestRecommender
    elif kind == "mvagc":
        factory = lambda: MvAGCRecommender(num_clusters=3)  # noqa: E731
    else:
        factory = RenderAllRecommender
    return room, target, kwargs, factory


@settings(max_examples=60, deadline=None)
@given(cases())
def test_walk_equals_oracle_equals_stream(case):
    room, target, kwargs, factory = case
    walk = evaluate_episode(AfterProblem(room, target, **kwargs), factory())
    oracle = episode_oracle(AfterProblem(room, target, **kwargs), factory())
    streamed = stream_episode(AfterProblem(room, target, **kwargs),
                              factory())
    assert walk.recommendations.shape == (room.horizon + 1, room.num_users)
    assert_episodes_identical(oracle, walk)
    assert_episodes_identical(oracle, streamed)


@pytest.fixture(scope="module")
def room():
    return generate_room("smm", RoomConfig(num_users=18, num_steps=5),
                         seed=11)


def dense_dog(room, target):
    converter = OcclusionGraphConverter(body_radius=room.body_radius)
    return DynamicOcclusionGraph(target, converter.convert_trajectory(
        room.trajectory.positions, target))


def assert_graphs_equal(expected, actual):
    assert expected.target == actual.target
    for name in ("adjacency", "distances", "centers", "half_widths"):
        np.testing.assert_array_equal(getattr(expected, name),
                                      getattr(actual, name), err_msg=name)


def assert_frame_arrays_equal(expected, actual):
    assert expected.t == actual.t
    assert_graphs_equal(expected.graph, actual.graph)
    for name in FRAME_ARRAYS:
        np.testing.assert_array_equal(getattr(expected, name),
                                      getattr(actual, name), err_msg=name)


def test_frame_at_equals_build_frame_on_the_dense_graph(room):
    for target in (int(room.mr_users[0]), int(room.vr_users[0])):
        dense = dense_dog(room, target)
        problem = AfterProblem(room, target)
        for t in range(problem.horizon + 1):
            expected = build_frame(t, target, dense[t],
                                   room.preference[target],
                                   room.presence[target],
                                   room.interfaces_mr)
            assert_frame_arrays_equal(expected, problem.frame_at(t))


def test_listed_frame_at_equals_frame_from_graph_on_the_dense_graph(room):
    target = int(room.mr_users[0])
    dense = dense_dog(room, target)
    problem = AfterProblem(room, target, blocklist=[1, 2],
                           allowlist=range(12))
    for t in range(problem.horizon + 1):
        assert_frame_arrays_equal(frame_from_graph(problem, t, dense[t]),
                                  problem.frame_at(t))


def test_lazy_dog_equals_from_trajectory():
    cold = generate_room("timik", RoomConfig(num_users=16, num_steps=5),
                         seed=3)
    PERF.reset().enable()
    try:
        lazy = cold.dog(4)
        assert cold.dog(4) is lazy
        counters = dict(PERF.counters)
    finally:
        PERF.disable().reset()
    assert counters["cache.dog.miss"] == 1
    assert counters["cache.dog.hit"] == 1
    expected = dense_dog(cold, 4)
    assert len(lazy) == len(expected) == cold.horizon + 1
    for expected_graph, lazy_graph in zip(expected, lazy):
        assert_graphs_equal(expected_graph, lazy_graph)
