"""Tests for visibility resolution and the occlusion-rate metric."""

import numpy as np
import pytest

from repro.geometry import forced_presence_mask, resolve_visibility
from tests.oracles import OcclusionGraphConverter, occlusion_rate, \
    physically_blocked_mask


def line_scene():
    """Target at origin; 1 near-east, 2 far-east (behind 1), 3 north."""
    positions = np.array([
        [0.0, 0.0],
        [2.0, 0.0],
        [4.0, 0.0],
        [0.0, 3.0],
    ])
    return OcclusionGraphConverter().convert(positions, target=0)


class TestForcedPresence:
    def test_mr_target_sees_mr_users(self):
        interfaces = np.array([True, True, False, True])  # MR flags
        forced = forced_presence_mask(interfaces, target=0)
        np.testing.assert_array_equal(forced, [False, True, False, True])

    def test_vr_target_sees_nothing_forced(self):
        interfaces = np.array([False, True, True, True])
        forced = forced_presence_mask(interfaces, target=0)
        assert not forced.any()

    def test_target_never_forced(self):
        interfaces = np.array([True, True])
        assert not forced_presence_mask(interfaces, target=0)[0]


class TestResolveVisibility:
    def test_unoccluded_rendered_user_visible(self):
        graph = line_scene()
        rendered = np.array([False, False, False, True])
        visible = resolve_visibility(graph, rendered)
        np.testing.assert_array_equal(visible, [False, False, False, True])

    def test_overlapping_avatars_clutter_each_other(self):
        """Avatar-avatar occlusion is symmetric and depth-free (the
        MWIS/Theorem-1 semantics): both overlapping avatars are unclear."""
        graph = line_scene()
        rendered = np.array([False, True, True, False])
        visible = resolve_visibility(graph, rendered)
        assert not visible[1]
        assert not visible[2]

    def test_farther_physical_does_not_occlude_nearer_avatar(self):
        graph = line_scene()
        rendered = np.array([False, True, False, False])
        forced = np.array([False, False, True, False])  # far user physically there
        visible = resolve_visibility(graph, rendered, forced)
        assert visible[1]

    def test_forced_user_occludes_rendered(self):
        graph = line_scene()
        rendered = np.array([False, False, True, False])  # only far user rendered
        forced = np.array([False, True, False, False])    # near user physical
        visible = resolve_visibility(graph, rendered, forced)
        assert not visible[2]
        assert visible[1]  # forced user itself visible

    def test_rendered_avatar_can_cover_physical_user(self):
        """Fig. 2b semantics: a nearer virtual avatar occludes an MR user."""
        graph = line_scene()
        rendered = np.array([False, True, False, False])  # near avatar rendered
        forced = np.array([False, False, True, False])    # far user physical
        visible = resolve_visibility(graph, rendered, forced)
        assert visible[1]
        assert not visible[2]

    def test_unrendered_user_invisible(self):
        graph = line_scene()
        visible = resolve_visibility(graph, np.zeros(4, dtype=bool))
        assert not visible.any()

    def test_target_never_visible_to_self(self):
        graph = line_scene()
        rendered = np.ones(4, dtype=bool)
        assert not resolve_visibility(graph, rendered)[0]

    def test_does_not_mutate_inputs(self):
        graph = line_scene()
        rendered = np.ones(4, dtype=bool)
        resolve_visibility(graph, rendered)
        assert rendered.all()


class TestPhysicallyBlocked:
    def test_candidate_behind_physical_user_blocked(self):
        graph = line_scene()
        forced = np.array([False, True, False, False])
        blocked = physically_blocked_mask(graph, forced)
        np.testing.assert_array_equal(blocked, [False, False, True, False])

    def test_no_forced_users_no_blocking(self):
        graph = line_scene()
        assert not physically_blocked_mask(graph, np.zeros(4, dtype=bool)).any()

    def test_forced_users_not_marked(self):
        graph = line_scene()
        forced = np.array([False, True, True, False])
        blocked = physically_blocked_mask(graph, forced)
        assert not blocked[1]
        assert not blocked[2]

    def test_candidate_in_front_of_physical_not_blocked(self):
        graph = line_scene()
        forced = np.array([False, False, True, False])  # far user physical
        blocked = physically_blocked_mask(graph, forced)
        assert not blocked[1]  # near candidate unaffected


class TestOcclusionRate:
    def test_zero_when_all_clear(self):
        graph = line_scene()
        rendered = np.array([False, True, False, True])
        assert occlusion_rate(graph, rendered) == 0.0

    def test_full_when_two_avatars_overlap(self):
        graph = line_scene()
        rendered = np.array([False, True, True, False])
        assert occlusion_rate(graph, rendered) == pytest.approx(1.0)

    def test_partial_when_one_avatar_clear(self):
        graph = line_scene()
        rendered = np.array([False, True, True, True])
        assert occlusion_rate(graph, rendered) == pytest.approx(2.0 / 3.0)

    def test_empty_recommendation_zero(self):
        graph = line_scene()
        assert occlusion_rate(graph, np.zeros(4, dtype=bool)) == 0.0

    def test_target_in_rendered_mask_ignored(self):
        graph = line_scene()
        rendered = np.array([True, True, False, False])
        assert occlusion_rate(graph, rendered) == 0.0

    def test_forced_occluders_count_against_rate(self):
        graph = line_scene()
        rendered = np.array([False, False, True, False])
        forced = np.array([False, True, False, False])
        assert occlusion_rate(graph, rendered, forced) == pytest.approx(1.0)
