"""Tests for interval / circular-arc MWIS solvers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mwis import (
    arcs_from_occlusion_graph,
    is_independent_set,
    set_weight,
    solve_circular_arc_mwis,
    solve_interval_mwis,
    solve_mwis_exact,
)
from tests.oracles import OcclusionGraphConverter


class TestIntervalMWIS:
    def test_empty(self):
        value, chosen = solve_interval_mwis([], np.array([]))
        assert value == 0.0
        assert chosen == []

    def test_disjoint_takes_all(self):
        intervals = [(0, 1), (2, 3), (4, 5)]
        value, chosen = solve_interval_mwis(intervals, np.ones(3))
        assert value == 3.0
        assert sorted(chosen) == [0, 1, 2]

    def test_nested_takes_heavier(self):
        intervals = [(0, 10), (2, 3)]
        value, chosen = solve_interval_mwis(intervals, np.array([5.0, 1.0]))
        assert value == 5.0
        assert chosen == [0]

    def test_chain_optimal(self):
        # (0,2),(1,3),(2,4): touching counts as overlap, optimum is middle
        # alone (weight 4) vs ends (1+1=2).
        intervals = [(0, 2), (1, 3), (2, 4)]
        value, chosen = solve_interval_mwis(intervals, np.array([1.0, 4.0, 1.0]))
        assert value == 4.0
        assert chosen == [1]

    def test_touching_endpoints_conflict(self):
        value, chosen = solve_interval_mwis([(0, 1), (1, 2)], np.ones(2))
        assert value == 1.0
        assert len(chosen) == 1

    def test_negative_weights_ignored(self):
        value, chosen = solve_interval_mwis([(0, 1)], np.array([-1.0]))
        assert value == 0.0
        assert chosen == []

    def test_selected_indices_are_original(self):
        intervals = [(5, 6), (0, 1)]
        _value, chosen = solve_interval_mwis(intervals, np.array([1.0, 2.0]))
        assert sorted(chosen) == [0, 1]


def arcs_conflict(a, b):
    """Reference predicate: do two (start,end) arcs on the circle overlap?"""
    def covered(arc):
        s, e = arc[0] % (2 * math.pi), arc[1] % (2 * math.pi)
        if s <= e:
            return [(s, e)]
        return [(s, 2 * math.pi), (0.0, e)]

    for s1, e1 in covered(a):
        for s2, e2 in covered(b):
            if s1 <= e2 and s2 <= e1:
                return True
    return False


def brute_force_circular(arcs, weights):
    import itertools
    n = len(arcs)
    best = 0.0
    for bits in itertools.product([0, 1], repeat=n):
        chosen = [i for i in range(n) if bits[i]]
        if any(arcs_conflict(arcs[i], arcs[j])
               for k, i in enumerate(chosen) for j in chosen[k + 1:]):
            continue
        best = max(best, sum(weights[i] for i in chosen))
    return best


class TestCircularArcMWIS:
    def test_empty(self):
        value, chosen = solve_circular_arc_mwis([], np.array([]))
        assert value == 0.0

    def test_non_wrapping_arcs(self):
        arcs = [(0.0, 0.5), (1.0, 1.5), (2.0, 2.5)]
        value, chosen = solve_circular_arc_mwis(arcs, np.ones(3))
        assert value == pytest.approx(3.0)

    def test_wraparound_arc_chosen_when_heavy(self):
        arcs = [(6.0, 0.5), (1.0, 1.5)]  # first wraps across 2 pi
        value, chosen = solve_circular_arc_mwis(arcs, np.array([5.0, 1.0]))
        assert value == pytest.approx(6.0)
        assert sorted(chosen) == [0, 1]

    def test_full_conflict_picks_heaviest(self):
        arcs = [(0.0, 3.0), (2.0, 5.0), (4.0, 1.0)]  # mutually overlapping
        value, chosen = solve_circular_arc_mwis(arcs, np.array([1.0, 2.0, 3.0]))
        assert value == pytest.approx(3.0)
        assert chosen == [2]

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = 7
        starts = rng.uniform(0, 2 * math.pi, n)
        widths = rng.uniform(0.1, 1.5, n)
        arcs = [(s, (s + w) % (2 * math.pi)) for s, w in zip(starts, widths)]
        weights = rng.uniform(0.1, 1.0, n)
        value, chosen = solve_circular_arc_mwis(arcs, weights)
        assert value == pytest.approx(brute_force_circular(arcs, weights), abs=1e-9)
        # Chosen set must be conflict-free.
        for k, i in enumerate(chosen):
            for j in chosen[k + 1:]:
                assert not arcs_conflict(arcs[i], arcs[j])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 100_000))
    def test_never_exceeds_exact_on_derived_graph(self, seed):
        """Circular-arc optimum == exact MWIS on the intersection graph."""
        rng = np.random.default_rng(seed)
        n = 8
        starts = rng.uniform(0, 2 * math.pi, n)
        widths = rng.uniform(0.05, 1.0, n)
        arcs = [(s, (s + w) % (2 * math.pi)) for s, w in zip(starts, widths)]
        weights = rng.uniform(0.1, 1.0, n)

        adjacency = np.zeros((n, n), dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                if arcs_conflict(arcs[i], arcs[j]):
                    adjacency[i, j] = adjacency[j, i] = True
        exact = set_weight(weights, solve_mwis_exact(adjacency, weights))
        value, _ = solve_circular_arc_mwis(arcs, weights)
        assert value == pytest.approx(exact, abs=1e-9)


class TestOcclusionGraphBridge:
    def test_arcs_from_occlusion_graph(self):
        positions = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
        graph = OcclusionGraphConverter().convert(positions, target=0)
        arcs, mask = arcs_from_occlusion_graph(graph)
        assert len(arcs) == 4
        assert not mask[0]
        assert mask[1:].all()

    def test_optimal_deocclusion_on_scene(self):
        """On the collinear scene the circular-arc optimum avoids the
        occluded far user when the near one is heavier."""
        positions = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
        graph = OcclusionGraphConverter().convert(positions, target=0)
        arcs, mask = arcs_from_occlusion_graph(graph)
        weights = np.array([0.0, 1.0, 0.4, 0.8])
        candidate_idx = np.nonzero(mask)[0]
        value, chosen = solve_circular_arc_mwis(
            [arcs[i] for i in candidate_idx], weights[candidate_idx])
        chosen_users = {int(candidate_idx[j]) for j in chosen}
        assert chosen_users == {1, 3}
        assert value == pytest.approx(1.8)
