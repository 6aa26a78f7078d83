"""Failure-injection tests: malformed inputs must fail loudly and early."""

import numpy as np
import pytest

from repro.core import AfterProblem, Recommender, evaluate_episode, \
    evaluate_targets
from repro.crowd import Trajectory
from repro.datasets import ConferenceRoom, RoomConfig, generate_timik_room
from repro.geometry import Room
from repro.models import POSHGNN
from repro.serving import stream_episode
from repro.social import SocialGraph


@pytest.fixture(scope="module")
def room():
    return generate_timik_room(RoomConfig(num_users=12, num_steps=4), seed=0)


def clone_room(room, **overrides):
    fields = dict(
        name=room.name,
        trajectory=room.trajectory,
        social=room.social,
        preference=room.preference,
        presence=room.presence,
        interfaces_mr=room.interfaces_mr,
        room=room.room,
        body_radius=room.body_radius,
        seed=room.seed,
    )
    fields.update(overrides)
    return ConferenceRoom(**fields)


class TestMalformedRooms:
    def test_utility_above_one_rejected(self, room):
        bad = room.preference.copy()
        bad[1, 2] = 1.5
        with pytest.raises(ValueError):
            clone_room(room, preference=bad)

    def test_negative_utility_rejected(self, room):
        bad = room.presence.copy()
        bad[1, 2] = -0.1
        with pytest.raises(ValueError):
            clone_room(room, presence=bad)

    def test_wrong_interface_length_rejected(self, room):
        with pytest.raises(ValueError):
            clone_room(room, interfaces_mr=np.ones(5, dtype=bool))

    def test_mismatched_social_graph_rejected(self, room):
        small = SocialGraph(np.zeros((3, 3), dtype=bool), np.zeros(3))
        with pytest.raises(ValueError):
            clone_room(room, social=small)

    def test_wrong_utility_shape_rejected(self, room):
        with pytest.raises(ValueError):
            clone_room(room, preference=np.zeros((3, 3)))


class TestMalformedTrajectories:
    def test_non_3d_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(np.zeros((5, 2)))

    def test_wrong_last_dim_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(np.zeros((5, 3, 3)))


class TestRecommenderMisbehaviour:
    def test_wrong_length_recommendation_detected(self, room):
        """A recommender returning the wrong shape crashes loudly rather
        than silently corrupting metrics."""
        from repro.core import Recommender

        class Broken(Recommender):
            name = "broken"

            def recommend(self, frame):
                return np.zeros(3, dtype=bool)  # wrong length

        problem = AfterProblem(room, target=0)
        with pytest.raises((ValueError, IndexError)):
            evaluate_episode(problem, Broken())

    def test_recommender_returning_floats_coerced(self, room):
        from repro.core import Recommender

        class Floaty(Recommender):
            name = "floaty"

            def recommend(self, frame):
                scores = np.zeros(frame.num_users)
                scores[1] = 0.9
                return scores  # float array, truthiness = bool cast

        problem = AfterProblem(room, target=0)
        result = evaluate_episode(problem, Floaty())
        assert result.recommendations[:, 1].all()

    def test_untrained_poshgnn_still_valid(self, room):
        """Inference before fit() must produce valid (if poor) output."""
        problem = AfterProblem(room, target=0)
        result = evaluate_episode(problem, POSHGNN(seed=0))
        assert np.isfinite(result.after_utility)

    def test_recommend_before_reset_raises(self, room):
        model = POSHGNN(seed=0)
        problem = AfterProblem(room, target=0)
        with pytest.raises(AttributeError):
            model.recommend(problem.frame_at(0))


class _FixedMask(Recommender):
    """Returns the same (malformed) mask at every step."""

    name = "fixed-mask"

    def __init__(self, mask):
        self.mask = mask

    def recommend(self, frame):
        return self.mask


class TestMalformedRenderMasks:
    """A render mask that is not one flag per user is refused by name.

    Broadcasting a scalar or a length-1 mask into the episode's
    recommendation rows used to render every user at every step.
    """

    MASKS = {"scalar": lambda n: True,
             "length-1": lambda n: np.ones(1, dtype=bool),
             "length-N+1": lambda n: np.ones(n + 1, dtype=bool)}

    @pytest.fixture(params=sorted(MASKS))
    def broken(self, request, room):
        return _FixedMask(self.MASKS[request.param](room.num_users))

    def test_evaluate_episode(self, room, broken):
        with pytest.raises(ValueError, match="fixed-mask"):
            evaluate_episode(AfterProblem(room, target=0), broken)

    def test_evaluate_targets(self, room, broken):
        with pytest.raises(ValueError, match="fixed-mask"):
            evaluate_targets(room, broken, [0, 5])

    def test_stream_episode(self, room, broken):
        with pytest.raises(ValueError, match="fixed-mask"):
            stream_episode(AfterProblem(room, target=0), broken)


class TestDegenerateScenes:
    def test_two_user_room(self):
        room = generate_timik_room(RoomConfig(num_users=2, num_steps=2),
                                   seed=0)
        problem = AfterProblem(room, target=0, max_render=1)
        from repro.models import NearestRecommender
        result = evaluate_episode(problem, NearestRecommender())
        assert np.isfinite(result.after_utility)

    def test_single_step_episode(self):
        room = generate_timik_room(RoomConfig(num_users=8, num_steps=1),
                                   seed=0)
        problem = AfterProblem(room, target=0)
        from repro.models import RandomRecommender
        result = evaluate_episode(problem, RandomRecommender())
        # One step cannot build consecutive visibility beyond step 1.
        assert result.recommendations.shape[0] == 2

    def test_all_vr_room(self):
        room = generate_timik_room(
            RoomConfig(num_users=10, num_steps=3, vr_fraction=1.0), seed=0)
        problem = AfterProblem(room, target=0)
        frame = problem.frame_at(0)
        assert not frame.forced.any()
        assert not frame.blocked.any()

    def test_all_mr_room(self):
        room = generate_timik_room(
            RoomConfig(num_users=10, num_steps=3, vr_fraction=0.0), seed=0)
        problem = AfterProblem(room, target=0)
        frame = problem.frame_at(0)
        assert frame.forced.sum() == 9
