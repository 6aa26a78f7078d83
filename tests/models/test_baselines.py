"""Tests for the seven baseline recommenders and the oracle."""

import dataclasses
import signal

import numpy as np
import pytest

from repro.core import AfterProblem, evaluate_episode
from repro.geometry import resolve_visibility
from repro.models import (
    COMURNetRecommender,
    DCRNNRecommender,
    GraFrankRecommender,
    MvAGCRecommender,
    NearestRecommender,
    OracleStepRecommender,
    RandomRecommender,
    RenderAllRecommender,
    TGCNRecommender,
)
from repro.social import SocialGraph


def _with_friendships(room, adjacency):
    """``room`` with its social graph replaced by ``adjacency``."""
    return dataclasses.replace(
        room, name=room.name + "-rewired",
        social=SocialGraph(adjacency, room.social.communities),
        _dog_cache={}, _frame_cache={})


def _fit_with_deadline(recommender, problem, seconds=30):
    """Fit, failing instead of hanging if training never returns."""
    def expire(signum, frame):
        raise TimeoutError(f"fit did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return recommender.fit([problem])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestRandom:
    def test_static_set_across_steps(self, problem):
        rec = RandomRecommender(seed=0)
        rec.reset(problem)
        first = rec.recommend(problem.frame_at(0))
        second = rec.recommend(problem.frame_at(1))
        np.testing.assert_array_equal(first, second)

    def test_resample_variant_changes(self, problem):
        rec = RandomRecommender(seed=0, resample_each_step=True)
        rec.reset(problem)
        masks = [rec.recommend(problem.frame_at(t)) for t in range(5)]
        assert any(not np.array_equal(masks[0], m) for m in masks[1:])

    def test_respects_budget(self, problem):
        rec = RandomRecommender(seed=0)
        rec.reset(problem)
        assert rec.recommend(problem.frame_at(0)).sum() == problem.max_render

    def test_never_selects_target(self, problem):
        rec = RandomRecommender(seed=1)
        rec.reset(problem)
        assert not rec.recommend(problem.frame_at(0))[problem.target]

    def test_deterministic_per_target(self, problem):
        a = RandomRecommender(seed=3)
        b = RandomRecommender(seed=3)
        a.reset(problem)
        b.reset(problem)
        np.testing.assert_array_equal(a.recommend(problem.frame_at(0)),
                                      b.recommend(problem.frame_at(0)))


class TestNearest:
    def test_selects_nearest_users(self, problem):
        rec = NearestRecommender()
        rec.reset(problem)
        frame = problem.frame_at(0)
        rendered = rec.recommend(frame)
        chosen = frame.distances[rendered]
        others = np.ones(frame.num_users, dtype=bool)
        others[frame.target] = False
        others &= ~rendered
        assert chosen.max() <= frame.distances[others].min() + 1e-9

    def test_budget(self, problem):
        rec = NearestRecommender()
        rec.reset(problem)
        assert rec.recommend(problem.frame_at(0)).sum() <= problem.max_render

    def test_adapts_to_motion(self, problem):
        rec = NearestRecommender()
        rec.reset(problem)
        sets = {tuple(np.nonzero(rec.recommend(problem.frame_at(t)))[0])
                for t in range(problem.horizon + 1)}
        # Over an episode the nearest set eventually changes.
        assert len(sets) >= 1


class TestRenderAll:
    def test_renders_everyone_but_target(self, problem):
        rec = RenderAllRecommender()
        rec.reset(problem)
        rendered = rec.recommend(problem.frame_at(0))
        assert rendered.sum() == problem.num_users - 1
        assert not rendered[problem.target]


class TestMvAGC:
    def test_validation(self):
        with pytest.raises(ValueError):
            MvAGCRecommender(num_clusters=0)
        with pytest.raises(ValueError):
            MvAGCRecommender(filter_order=0)
        with pytest.raises(ValueError):
            MvAGCRecommender(anchor_fraction=0.0)

    def test_static_recommendation(self, problem):
        rec = MvAGCRecommender(seed=0)
        rec.fit([problem])
        rec.reset(problem)
        first = rec.recommend(problem.frame_at(0))
        second = rec.recommend(problem.frame_at(3))
        np.testing.assert_array_equal(first, second)

    def test_reset_refits_for_new_room(self, room, problem):
        from repro.datasets import RoomConfig, generate_timik_room
        other_room = generate_timik_room(
            RoomConfig(num_users=30, num_steps=5), seed=9)
        rec = MvAGCRecommender(seed=0)
        rec.reset(problem)                      # lazily fits on `room`
        rec.reset(AfterProblem(other_room, 0))  # must refit
        rendered = rec.recommend(
            AfterProblem(other_room, 0).frame_at(0))
        assert rendered.shape == (30,)

    def test_recommends_same_cluster_members(self, problem):
        rec = MvAGCRecommender(seed=0)
        rec.fit([problem])
        rec.reset(problem)
        rendered = rec.recommend(problem.frame_at(0))
        clusters = rec._clusters
        target_cluster = clusters[problem.target]
        assert (clusters[rendered] == target_cluster).all()

    def test_fit_validates(self):
        with pytest.raises(ValueError):
            MvAGCRecommender().fit([])


class TestGraFrank:
    def test_training_reduces_bpr_loss(self, problem):
        rec = GraFrankRecommender(epochs=20, seed=0)
        history = rec.fit([problem])
        if history["loss"]:
            assert history["loss"][-1] <= history["loss"][0]

    def test_static_topk(self, problem):
        rec = GraFrankRecommender(epochs=5, seed=0)
        rec.fit([problem])
        rec.reset(problem)
        first = rec.recommend(problem.frame_at(0))
        second = rec.recommend(problem.frame_at(2))
        np.testing.assert_array_equal(first, second)
        assert first.sum() <= problem.max_render

    def test_ranks_friends_highly(self, room, problem):
        """BPR training should score friends above average strangers."""
        rec = GraFrankRecommender(epochs=40, seed=0)
        rec.fit([problem])
        emb = rec._embeddings
        scores = emb @ emb[problem.target]
        friends = room.social.adjacency[problem.target]
        strangers = ~friends
        strangers[problem.target] = False
        if friends.any():
            assert scores[friends].mean() > scores[strangers].mean()


    def test_fit_terminates_when_a_user_befriends_everyone(self, room):
        """Such an anchor has no negative to draw; the BPR resampling
        loop used to spin forever once it picked one of its edges."""
        adjacency = room.social.adjacency.copy()
        adjacency[0, 1:] = adjacency[1:, 0] = True
        hub_room = _with_friendships(room, adjacency)
        history = _fit_with_deadline(GraFrankRecommender(epochs=5, seed=0),
                                     AfterProblem(hub_room, target=0))
        assert len(history["loss"]) == 5
        assert all(np.isfinite(history["loss"]))

    def test_complete_friendship_graph_trains_no_update(self, room):
        """With every anchor ineligible no epoch has an edge to rank."""
        count = room.num_users
        adjacency = ~np.eye(count, dtype=bool)
        rec = GraFrankRecommender(epochs=5, seed=0)
        history = _fit_with_deadline(
            rec, AfterProblem(_with_friendships(room, adjacency), target=0))
        assert history["loss"] == []
        assert np.all(np.isfinite(rec._embeddings))


class TestRecurrentBaselines:
    @pytest.mark.parametrize("cls", [DCRNNRecommender, TGCNRecommender])
    def test_recommend_interface(self, cls, problem):
        rec = cls(seed=0)
        rec.reset(problem)
        rendered = rec.recommend(problem.frame_at(0))
        assert rendered.sum() <= problem.max_render
        assert not rendered[problem.target]

    @pytest.mark.parametrize("cls", [DCRNNRecommender, TGCNRecommender])
    def test_fit_reduces_loss(self, cls, train_problems):
        rec = cls(seed=0)
        history = rec.fit(train_problems, epochs=6, restarts=1)
        assert history["loss"][-1] <= history["loss"][0] * 1.05

    def test_fit_validates(self, train_problems):
        with pytest.raises(ValueError):
            DCRNNRecommender().fit([])
        with pytest.raises(ValueError):
            DCRNNRecommender().fit(train_problems, restarts=0)

    def test_reinitialize_changes_parameters(self):
        rec = TGCNRecommender(seed=0)
        before = rec.readout.weight.data.copy()
        rec.reinitialize(4)
        assert not np.allclose(before, rec.readout.weight.data)

    def test_hidden_state_carries_across_steps(self, problem):
        rec = DCRNNRecommender(seed=0)
        rec.reset(problem)
        rec.recommend(problem.frame_at(0))
        state_after_one = rec._hidden.data.copy()
        rec.recommend(problem.frame_at(1))
        assert not np.allclose(state_after_one, rec._hidden.data)


class TestCOMURNet:
    def test_validation(self):
        with pytest.raises(ValueError):
            COMURNetRecommender(rollouts=0)

    def test_zero_occlusion_guarantee(self, room):
        """The hard constraint: recommended avatars never conflict with
        each other nor with physical participants."""
        rec = COMURNetRecommender(rollouts=4, seed=0)
        for target in (0, 5):
            problem = AfterProblem(room, target)
            result = evaluate_episode(problem, rec)
            assert result.occlusion_rate == 0.0

    def test_recommended_set_is_independent(self, problem):
        rec = COMURNetRecommender(rollouts=4, seed=0)
        rec.reset(problem)
        frame = problem.frame_at(0)
        rendered = rec.recommend(frame)
        sub = frame.graph.adjacency[np.ix_(rendered, rendered)]
        assert not sub.any()

    def test_never_recommends_forced_users(self, problem):
        rec = COMURNetRecommender(rollouts=4, seed=0)
        rec.reset(problem)
        frame = problem.frame_at(0)
        rendered = rec.recommend(frame)
        assert not (rendered & frame.forced).any()

    def test_all_rendered_visible(self, problem):
        rec = COMURNetRecommender(rollouts=4, seed=0)
        rec.reset(problem)
        frame = problem.frame_at(0)
        rendered = rec.recommend(frame)
        visible = resolve_visibility(frame.graph, rendered, frame.forced)
        assert (visible[rendered]).all()

    def test_fit_returns_rewards(self, train_problems):
        rec = COMURNetRecommender(rollouts=4, train_episodes=1, seed=0)
        history = rec.fit(train_problems)
        assert len(history["reward"]) > 0

    def test_slower_than_simple_baselines(self, problem):
        comur = COMURNetRecommender(rollouts=8, seed=0)
        fast = NearestRecommender()
        slow_result = evaluate_episode(problem, comur)
        fast_result = evaluate_episode(problem, fast)
        assert slow_result.runtime_ms > fast_result.runtime_ms


class TestOracle:
    def test_no_mutual_occlusion(self, vr_problem):
        rec = OracleStepRecommender()
        rec.reset(vr_problem)
        frame = vr_problem.frame_at(0)
        rendered = rec.recommend(frame)
        sub = frame.graph.adjacency[np.ix_(rendered, rendered)]
        assert not sub.any()

    def test_respects_budget(self, problem):
        rec = OracleStepRecommender()
        rec.reset(problem)
        assert rec.recommend(problem.frame_at(0)).sum() <= problem.max_render

    def test_dominates_random_on_average(self, room):
        oracle = OracleStepRecommender()
        random = RandomRecommender(seed=0)
        targets = [0, 4, 8]
        oracle_scores = [evaluate_episode(AfterProblem(room, t),
                                          oracle).after_utility
                         for t in targets]
        random_scores = [evaluate_episode(AfterProblem(room, t),
                                          random).after_utility
                         for t in targets]
        assert np.mean(oracle_scores) > np.mean(random_scores)
