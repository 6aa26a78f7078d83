"""Shared-frame caching: vectorised episode frames vs per-step builds."""

import numpy as np
import pytest

from repro.core import AfterProblem
from repro.core.scene import build_episode_frames, build_room_frames
from repro.datasets import RoomConfig, generate_room
from tests.oracles import build_frame, resolve_visibility

FRAME_ARRAYS = ("preference", "presence", "preference_hat", "presence_hat",
                "distances", "forced", "blocked", "forced_occluded", "mask",
                "raw_preference", "raw_presence")


@pytest.fixture(scope="module")
def room():
    return generate_room("timik", RoomConfig(num_users=20, num_steps=6),
                         seed=5)


def assert_frames_equal(reference, fast):
    assert reference.t == fast.t
    assert reference.target == fast.target
    assert reference.graph is fast.graph
    for name in FRAME_ARRAYS:
        np.testing.assert_array_equal(getattr(reference, name),
                                      getattr(fast, name), err_msg=name)


@pytest.mark.parametrize("target", [0, 7, 13])
def test_build_episode_frames_matches_build_frame(room, target):
    graphs = room.dog(target).snapshots
    frames = build_episode_frames(target, graphs,
                                  room.preference[target],
                                  room.presence[target],
                                  room.interfaces_mr)
    assert len(frames) == room.horizon + 1
    for t, fast in enumerate(frames):
        reference = build_frame(t, target, graphs[t],
                                room.preference[target],
                                room.presence[target],
                                room.interfaces_mr)
        assert_frames_equal(reference, fast)


def test_build_room_frames_matches_build_frame(room):
    """Mixed MR (0, 7, 13) and VR (2) targets batched as rooms."""
    targets = [0, 2, 7, 13]
    for t in range(room.horizon + 1):
        graphs = [room.dog(target).snapshots[t] for target in targets]
        frames = build_room_frames(
            [t] * len(targets), targets, graphs,
            [room.preference[target] for target in targets],
            [room.presence[target] for target in targets],
            [room.interfaces_mr] * len(targets))
        for target, graph, fast in zip(targets, graphs, frames):
            reference = build_frame(t, target, graph,
                                    room.preference[target],
                                    room.presence[target],
                                    room.interfaces_mr)
            assert_frames_equal(reference, fast)


@pytest.mark.parametrize("target", [0, 2, 13])
def test_forced_occluded_is_the_dense_physical_term(room, target):
    """With nothing rendered, the dense resolver hides exactly the
    forced users that ``forced_occluded`` marks."""
    frames = room.episode_frames(target)
    nothing = np.zeros(room.num_users, dtype=bool)
    for frame in frames:
        seen = resolve_visibility(frame.graph, nothing, frame.forced)
        np.testing.assert_array_equal(frame.forced_occluded,
                                      frame.forced & ~seen)
    assert any(frame.forced_occluded.any() for frame in frames) \
        == bool(room.interfaces_mr[target])


def test_problem_episode_frames_match_frame_at(room):
    problem = AfterProblem(room, 2)
    frames = problem.episode_frames()
    for t in range(problem.horizon + 1):
        reference = problem.frame_at(t)
        fast = frames[t]
        for name in FRAME_ARRAYS:
            np.testing.assert_array_equal(getattr(reference, name),
                                          getattr(fast, name), err_msg=name)


def test_problem_episode_frames_cached_per_problem(room):
    problem = AfterProblem(room, 4)
    assert problem.episode_frames() is problem.episode_frames()
    # Plain problems share the room-level cache.
    other = AfterProblem(room, 4)
    assert other.episode_frames() is problem.episode_frames()


def test_listed_problem_builds_private_frames(room):
    plain = AfterProblem(room, 4)
    listed = AfterProblem(room, 4, blocklist=[1])
    plain_frames = plain.episode_frames()
    listed_frames = listed.episode_frames()
    assert listed_frames is not plain_frames
    assert listed_frames[0].preference[1] == 0.0
    # The shared cache keeps the unpruned values.
    assert plain.episode_frames()[0].mask[1] != 0.0 or \
        plain_frames[0].blocked[1]


def test_prebuild_dogs_fills_the_cache_identically(room):
    cold = generate_room("timik", RoomConfig(num_users=20, num_steps=6),
                         seed=5)
    cold.prebuild_dogs([1, 3, 3, 8])
    assert set(cold._dog_cache) >= {1, 3, 8}
    for target in (1, 3, 8):
        expected = room.dog(target)
        built = cold.dog(target)
        assert len(built) == len(expected)
        for ref_graph, new_graph in zip(expected, built):
            np.testing.assert_array_equal(ref_graph.adjacency,
                                          new_graph.adjacency)
            np.testing.assert_array_equal(ref_graph.distances,
                                          new_graph.distances)
            np.testing.assert_array_equal(ref_graph.centers,
                                          new_graph.centers)
            np.testing.assert_array_equal(ref_graph.half_widths,
                                          new_graph.half_widths)


def test_clear_caches(room):
    fresh = generate_room("timik", RoomConfig(num_users=20, num_steps=6),
                          seed=5)
    fresh.prebuild_dogs([0])
    fresh.episode_frames(0)
    assert fresh._dog_cache and fresh._frame_cache
    fresh.clear_caches()
    assert not fresh._dog_cache and not fresh._frame_cache
