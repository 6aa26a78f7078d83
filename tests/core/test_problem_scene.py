"""Tests for AfterProblem and Frame assembly (MIA preprocessing)."""

import numpy as np
import pytest

from repro.core import AfterProblem, distance_normalise
from tests.oracles import OcclusionGraphConverter, build_frame


class TestAfterProblem:
    def test_construction_defaults(self, small_room):
        problem = AfterProblem(small_room, target=0)
        assert problem.beta == 0.5
        assert problem.max_render == 8
        assert problem.horizon == 10

    def test_validation(self, small_room):
        with pytest.raises(IndexError):
            AfterProblem(small_room, target=999)
        with pytest.raises(ValueError):
            AfterProblem(small_room, target=0, beta=2.0)
        with pytest.raises(ValueError):
            AfterProblem(small_room, target=0, max_render=0)

    def test_frames_cover_horizon(self, small_room):
        problem = AfterProblem(small_room, target=1)
        frames = list(problem.frames())
        assert len(frames) == 11
        assert frames[0].t == 0
        assert frames[-1].t == 10

    def test_frame_at_bounds(self, small_room):
        problem = AfterProblem(small_room, target=1)
        with pytest.raises(IndexError):
            problem.frame_at(11)
        with pytest.raises(IndexError):
            problem.frame_at(-1)

    def test_adjacency_before_start(self, small_room):
        problem = AfterProblem(small_room, target=2)
        np.testing.assert_allclose(problem.adjacency(-1), 0.0)

    def test_delta_shape(self, small_room):
        problem = AfterProblem(small_room, target=2)
        assert problem.delta(0).shape == (25, 3)


class TestDistanceNormalise:
    def test_zero_distance_is_identity(self):
        out = distance_normalise(np.array([0.8]), np.array([0.0]))
        np.testing.assert_allclose(out, [0.8])

    def test_decreases_with_distance(self):
        out = distance_normalise(np.array([1.0, 1.0]), np.array([1.0, 3.0]))
        assert out[0] > out[1]

    def test_stays_in_unit_interval(self):
        rng = np.random.default_rng(0)
        utilities = rng.random(50)
        distances = rng.uniform(0, 20, 50)
        out = distance_normalise(utilities, distances)
        assert (out >= 0).all()
        assert (out <= 1).all()


class TestFrame:
    def make_frame(self):
        """Line scene: target 0; user1 MR near; user2 VR behind user1;
        user3 VR clear."""
        positions = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
        graph = OcclusionGraphConverter().convert(positions, target=0)
        preference = np.array([0.0, 0.5, 0.9, 0.3])
        presence = np.array([0.0, 0.1, 0.8, 0.6])
        interfaces = np.array([True, True, False, False])
        return build_frame(0, 0, graph, preference, presence, interfaces)

    def test_forced_mask(self):
        frame = self.make_frame()
        np.testing.assert_array_equal(frame.forced, [False, True, False, False])

    def test_blocked_user_pruned(self):
        frame = self.make_frame()
        assert frame.blocked[2]          # behind physical user 1
        assert frame.mask[2] == 0.0
        assert frame.preference[2] == 0.0
        assert frame.presence[2] == 0.0

    def test_target_masked(self):
        frame = self.make_frame()
        assert frame.mask[0] == 0.0

    def test_candidates_excludes_target_and_blocked(self):
        frame = self.make_frame()
        np.testing.assert_array_equal(frame.candidates(), [1, 3])

    def test_features_shape_and_range(self):
        frame = self.make_frame()
        features = frame.features()
        assert features.shape == (4, 4)
        assert features.min() >= 0.0
        assert features.max() <= 1.0

    def test_features_interface_channel(self):
        frame = self.make_frame()
        np.testing.assert_array_equal(frame.features()[:, 3], [1, 1, 0, 0])

    def test_normalised_utilities_reflect_distance(self):
        frame = self.make_frame()
        # user3: p=0.3 at distance 3, scale=max distance 4
        # -> 0.3 / (1 + (3/4)^2) = 0.192
        assert frame.preference_hat[3] == pytest.approx(0.3 / (1 + 0.75 ** 2))

    def test_vr_target_has_no_forced_or_blocked(self):
        positions = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
        graph = OcclusionGraphConverter().convert(positions, target=0)
        frame = build_frame(0, 0, graph, np.ones(3) * 0.5, np.ones(3) * 0.5,
                            np.array([False, True, True]))
        assert not frame.forced.any()
        assert not frame.blocked.any()
