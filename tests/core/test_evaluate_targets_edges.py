"""Regression tests for ``evaluate_targets`` edge cases.

Online callers (the serving layer, dashboards re-scoring a live room)
legitimately hit two degenerate inputs that the batch benchmarks never
produced: a room whose target list drained to zero, and a single-frame
(``T = 1``) episode.  The empty list used to raise from the
aggregation.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import evaluate_targets
from repro.core.evaluation import AggregateResult
from repro.crowd.simulator import Trajectory
from repro.datasets import RoomConfig, generate_timik_room
from repro.models.baselines import NearestRecommender
from tests.oracles import targets_oracle


@pytest.fixture(scope="module")
def room():
    return generate_timik_room(RoomConfig(num_users=10, num_steps=4),
                               seed=2)


@pytest.fixture(scope="module")
def single_frame_room(room):
    """The same room truncated to one frame (horizon 0)."""
    return dataclasses.replace(
        room, name=room.name + "-t1",
        trajectory=Trajectory(room.trajectory.positions[:1]),
        _dog_cache={}, _frame_cache={})


def test_empty_target_list(room):
    result = evaluate_targets(room, NearestRecommender(), [])
    assert result.episodes == []
    for metric in (result.after_utility, result.preference,
                   result.presence, result.occlusion_rate,
                   result.runtime_ms):
        assert np.isnan(metric)


def test_empty_aggregate_is_well_formed():
    empty = AggregateResult.empty()
    assert empty.episodes == []
    assert np.isnan(empty.after_utility)


def test_single_frame_episode(single_frame_room):
    result = evaluate_targets(single_frame_room, NearestRecommender(),
                              [0, 3, 7])
    assert len(result.episodes) == 3
    for episode in result.episodes:
        assert episode.recommendations.shape == (
            1, single_frame_room.num_users)
        assert np.isfinite(episode.after_utility)


def test_single_frame_matches_across_engines(single_frame_room):
    """The episode walk and the per-step oracle agree on one frame."""
    reference = targets_oracle(single_frame_room, NearestRecommender(),
                               [0, 3, 7])
    batched = evaluate_targets(single_frame_room, NearestRecommender(),
                               [0, 3, 7])
    assert reference.after_utility == batched.after_utility
    assert reference.occlusion_rate == batched.occlusion_rate
