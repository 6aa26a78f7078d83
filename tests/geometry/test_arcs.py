"""Unit and property tests for repro.geometry.arcs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    Arc,
    angular_separation,
    arc_of_user,
    arcs_intersect,
)
from tests.oracles import arc_intersection_matrix

ANGLES = st.floats(min_value=-math.pi, max_value=math.pi,
                   allow_nan=False, allow_infinity=False)
HALF_WIDTHS = st.floats(min_value=0.0, max_value=math.pi,
                        allow_nan=False, allow_infinity=False)


class TestArc:
    def test_rejects_invalid_half_width(self):
        with pytest.raises(ValueError):
            Arc(center=0.0, half_width=-0.1)
        with pytest.raises(ValueError):
            Arc(center=0.0, half_width=math.pi + 0.1)

    def test_width(self):
        assert Arc(0.0, 0.3).width == pytest.approx(0.6)

    def test_contains_center(self):
        assert Arc(1.0, 0.2).contains(1.0)

    def test_contains_wraparound(self):
        arc = Arc(center=math.pi, half_width=0.3)
        assert arc.contains(-math.pi + 0.1)  # other side of the seam
        assert not arc.contains(0.0)

    def test_endpoints_normalised(self):
        start, end = Arc(center=math.pi - 0.1, half_width=0.3).endpoints()
        assert -math.pi <= start <= math.pi
        assert -math.pi <= end <= math.pi

    def test_intersects_overlapping(self):
        assert Arc(0.0, 0.5).intersects(Arc(0.8, 0.4))

    def test_intersects_disjoint(self):
        assert not Arc(0.0, 0.2).intersects(Arc(1.0, 0.2))

    def test_intersects_across_seam(self):
        assert Arc(math.pi - 0.05, 0.2).intersects(Arc(-math.pi + 0.05, 0.2))


class TestAngularSeparation:
    def test_zero_for_equal(self):
        assert angular_separation(1.3, 1.3) == 0.0

    def test_wraps_across_seam(self):
        assert angular_separation(math.pi - 0.1, -math.pi + 0.1) == pytest.approx(0.2)

    def test_max_is_pi(self):
        assert angular_separation(0.0, math.pi) == pytest.approx(math.pi)

    def test_vectorised(self):
        out = angular_separation(np.array([0.0, math.pi]), np.array([0.1, -math.pi]))
        np.testing.assert_allclose(out, [0.1, 0.0], atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(ANGLES, ANGLES)
    def test_symmetric_and_bounded(self, a, b):
        sep = float(angular_separation(a, b))
        assert 0.0 <= sep <= math.pi + 1e-9
        assert sep == pytest.approx(float(angular_separation(b, a)))


class TestArcOfUser:
    def test_center_points_at_user(self):
        arc = arc_of_user(np.zeros(2), np.array([0.0, 2.0]), body_radius=0.25)
        assert arc.center == pytest.approx(math.pi / 2)

    def test_half_width_shrinks_with_distance(self):
        near = arc_of_user(np.zeros(2), np.array([1.0, 0.0]), 0.25)
        far = arc_of_user(np.zeros(2), np.array([5.0, 0.0]), 0.25)
        assert near.half_width > far.half_width

    def test_half_width_formula(self):
        arc = arc_of_user(np.zeros(2), np.array([2.0, 0.0]), 0.5)
        assert arc.half_width == pytest.approx(math.asin(0.25))

    def test_contact_distance_gives_half_pi(self):
        arc = arc_of_user(np.zeros(2), np.array([0.1, 0.0]), body_radius=0.25)
        assert arc.half_width == pytest.approx(math.pi / 2)


class TestIntersectionMatrix:
    def test_symmetric_false_diagonal(self):
        rng = np.random.default_rng(0)
        centers = rng.uniform(-math.pi, math.pi, 12)
        halves = rng.uniform(0.01, 0.5, 12)
        mat = arcs_intersect(centers, halves)
        assert not mat.diagonal().any()
        np.testing.assert_array_equal(mat, mat.T)

    def test_matches_pairwise_arc_objects(self):
        rng = np.random.default_rng(1)
        arcs = [Arc(float(c), float(h)) for c, h in
                zip(rng.uniform(-math.pi, math.pi, 8), rng.uniform(0.01, 0.8, 8))]
        mat = arc_intersection_matrix(arcs)
        for i in range(8):
            for j in range(8):
                if i != j:
                    assert mat[i, j] == arcs[i].intersects(arcs[j])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(ANGLES, HALF_WIDTHS), min_size=2, max_size=8))
    def test_rotation_invariance(self, params):
        """Rotating every arc by the same offset preserves intersections
        (away from exact-touch boundaries, where float rounding may flip
        the closed-interval predicate)."""
        centers = np.array([p[0] for p in params])
        halves = np.array([p[1] for p in params])
        base = arcs_intersect(centers, halves)
        rotated = arcs_intersect(centers + 1.234, halves)
        separation = angular_separation(centers[:, None], centers[None, :])
        margin = np.abs(separation - (halves[:, None] + halves[None, :]))
        decisive = margin > 1e-9
        np.testing.assert_array_equal(base[decisive], rotated[decisive])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(ANGLES, HALF_WIDTHS), min_size=2, max_size=8))
    def test_growing_arcs_preserves_edges(self, params):
        """Widening every arc can only add intersections, never remove."""
        centers = np.array([p[0] for p in params])
        halves = np.array([min(p[1], math.pi - 1e-6) for p in params])
        before = arcs_intersect(centers, halves)
        after = arcs_intersect(centers, np.minimum(halves + 0.1, math.pi))
        assert (before <= after).all()
