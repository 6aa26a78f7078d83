"""Tests for extension features: blocklist/allowlist and finite FoV."""

import math

import numpy as np
import pytest

from repro.core import AfterProblem, evaluate_episode
from repro.models import RandomRecommender, POSHGNN
from tests.oracles import OcclusionGraphConverter


class TestBlocklist:
    def test_blocked_user_masked_and_zeroed(self, small_room):
        problem = AfterProblem(small_room, target=0, blocklist={5, 6})
        frame = problem.frame_at(0)
        assert frame.mask[5] == 0.0
        assert frame.mask[6] == 0.0
        assert frame.preference[5] == 0.0
        assert frame.presence_hat[6] == 0.0

    def test_blocked_user_never_recommended_by_poshgnn(self, small_room):
        problem = AfterProblem(small_room, target=0, blocklist={5})
        model = POSHGNN(seed=0)
        model.reset(problem)
        for t in range(4):
            assert not model.recommend(problem.frame_at(t))[5]

    def test_blocked_user_earns_no_utility(self, small_room):
        """Even a recommender that ignores the mask earns nothing from a
        blocked user."""
        blocked = {1, 2, 3}
        problem = AfterProblem(small_room, target=0, blocklist=blocked)

        class OnlyBlocked(RandomRecommender):
            def recommend(self, frame):
                mask = np.zeros(frame.num_users, dtype=bool)
                mask[list(blocked)] = True
                return mask

        rec = OnlyBlocked(seed=0)
        result = evaluate_episode(problem, rec)
        assert result.after_utility == 0.0

    def test_allowlist_restricts_candidates(self, small_room):
        allowed = {7, 8, 9}
        problem = AfterProblem(small_room, target=0, allowlist=allowed)
        frame = problem.frame_at(0)
        candidates = set(frame.candidates().tolist())
        assert candidates <= allowed

    def test_blocklist_overrides_allowlist(self, small_room):
        problem = AfterProblem(small_room, target=0, allowlist={7, 8},
                               blocklist={8})
        frame = problem.frame_at(0)
        assert frame.mask[8] == 0.0

    def test_validation(self, small_room):
        with pytest.raises(ValueError):
            AfterProblem(small_room, target=0, blocklist={0})
        with pytest.raises(IndexError):
            AfterProblem(small_room, target=0, blocklist={999})

    def test_no_lists_is_default_mask(self, small_room):
        plain = AfterProblem(small_room, target=0)
        listed = AfterProblem(small_room, target=0, blocklist=set())
        np.testing.assert_allclose(plain.frame_at(0).mask,
                                   listed.frame_at(0).mask)


class TestFieldOfView:
    def scene(self):
        """Target at origin; user 1 east, user 2 west."""
        return np.array([[0.0, 0.0], [2.0, 0.0], [-2.0, 0.0],
                         [2.2, 0.05]])

    def test_full_circle_default(self):
        graph = OcclusionGraphConverter().convert(self.scene(), 0)
        assert graph.adjacency[1, 3]  # east pair overlaps

    def test_narrow_fov_excludes_behind(self):
        converter = OcclusionGraphConverter(fov=math.pi / 2)
        graph = converter.convert(self.scene(), 0, facing=0.0)  # facing east
        assert graph.adjacency[1, 3]        # in-cone pair still overlaps
        assert not graph.adjacency[2].any()  # west user out of the cone

    def test_facing_rotates_cone(self):
        converter = OcclusionGraphConverter(fov=math.pi / 2)
        graph = converter.convert(self.scene(), 0, facing=math.pi)  # west
        assert not graph.adjacency[1].any()
        assert not graph.adjacency[3].any()

    def test_fov_validation(self):
        with pytest.raises(ValueError):
            OcclusionGraphConverter(fov=0.0)
        with pytest.raises(ValueError):
            OcclusionGraphConverter(fov=7.0)

    def test_full_fov_equals_default(self):
        full = OcclusionGraphConverter(fov=2 * math.pi)
        default = OcclusionGraphConverter()
        scene = self.scene()
        np.testing.assert_array_equal(
            full.convert(scene, 0).adjacency,
            default.convert(scene, 0).adjacency)
