"""Determinism of the evaluation walk and its equality with the oracle.

``evaluate_targets``/``evaluate_episode`` must produce *identical*
metrics (everything except wall-clock ``runtime_ms``) to the per-step
oracle in ``tests/oracles.py``, episode by episode.  Also pins the
vectorised ``EpisodeResult.continuity`` against its loop definition.
"""

import numpy as np
import pytest

from repro.core import AfterProblem
from repro.core.evaluation import (
    EpisodeResult,
    evaluate_episode,
    evaluate_targets,
)
from repro.datasets import RoomConfig, generate_room
from repro.models import NearestRecommender, RandomRecommender
from tests.oracles import episode_oracle, targets_oracle

TARGETS = [0, 3, 7, 12, 19]


def fresh_room(seed=3):
    return generate_room("smm", RoomConfig(num_users=24, num_steps=8),
                         seed=seed)


def assert_episodes_identical(a, b):
    assert a.after_utility == b.after_utility
    assert a.preference == b.preference
    assert a.presence == b.presence
    assert a.occlusion_rate == b.occlusion_rate
    np.testing.assert_array_equal(a.per_step_after, b.per_step_after)
    np.testing.assert_array_equal(a.recommendations, b.recommendations)


def assert_aggregates_identical(a, b):
    assert a.after_utility == b.after_utility
    assert a.preference == b.preference
    assert a.presence == b.presence
    assert a.occlusion_rate == b.occlusion_rate
    assert len(a.episodes) == len(b.episodes)
    for episode_a, episode_b in zip(a.episodes, b.episodes):
        assert_episodes_identical(episode_a, episode_b)


@pytest.mark.parametrize("recommender_cls", [NearestRecommender,
                                             RandomRecommender])
def test_batched_engine_matches_reference(recommender_cls):
    reference = targets_oracle(fresh_room(), recommender_cls(), TARGETS)
    batched = evaluate_targets(fresh_room(), recommender_cls(), TARGETS)
    assert_aggregates_identical(reference, batched)


def test_warm_caches_do_not_change_results():
    room = fresh_room()
    first = evaluate_targets(room, NearestRecommender(), TARGETS)
    second = evaluate_targets(room, NearestRecommender(), TARGETS)
    assert_aggregates_identical(first, second)


def test_listed_problems_match_reference_and_do_not_poison_cache():
    room_ref, room_fast = fresh_room(), fresh_room()
    kwargs = {"blocklist": [1, 2], "allowlist": range(18)}
    reference = episode_oracle(AfterProblem(room_ref, 3, **kwargs),
                               NearestRecommender())
    fast = evaluate_episode(AfterProblem(room_fast, 3, **kwargs),
                            NearestRecommender())
    assert_episodes_identical(reference, fast)

    # The room-level frame cache must be untouched by list pruning.
    plain_ref = episode_oracle(AfterProblem(room_ref, 3),
                               NearestRecommender())
    plain_fast = evaluate_episode(AfterProblem(room_fast, 3),
                                  NearestRecommender())
    assert_episodes_identical(plain_ref, plain_fast)


def _loop_continuity(recommendations):
    if recommendations.shape[0] < 2:
        return 1.0
    overlaps = []
    for t in range(1, recommendations.shape[0]):
        a, b = recommendations[t - 1], recommendations[t]
        union = int((a | b).sum())
        overlaps.append(1.0 if union == 0 else int((a & b).sum()) / union)
    return float(np.mean(overlaps))


def _result_with(recommendations):
    return EpisodeResult(after_utility=0.0, preference=0.0, presence=0.0,
                         occlusion_rate=0.0, runtime_ms=0.0,
                         per_step_after=np.zeros(1),
                         recommendations=recommendations)


class TestContinuity:
    def test_matches_loop_on_random_masks(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            masks = rng.random((rng.integers(1, 12), 9)) < 0.4
            assert _result_with(masks).continuity() == _loop_continuity(masks)

    def test_single_step_is_perfectly_stable(self):
        assert _result_with(np.ones((1, 4), dtype=bool)).continuity() == 1.0

    def test_empty_consecutive_sets_count_as_stable(self):
        masks = np.zeros((3, 5), dtype=bool)
        assert _result_with(masks).continuity() == 1.0

    def test_total_flicker_is_zero(self):
        masks = np.array([[True, False], [False, True]])
        assert _result_with(masks).continuity() == 0.0

    def test_known_value(self):
        masks = np.array([[1, 1, 0, 0],
                          [1, 0, 1, 0],
                          [1, 0, 1, 0]], dtype=bool)
        # Jaccard(step0, step1) = 1/3, Jaccard(step1, step2) = 1.
        assert _result_with(masks).continuity() == pytest.approx(2 / 3)
