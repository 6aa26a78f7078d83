"""Tests for RVO2-style non-penetration enforcement."""

import numpy as np
import pytest

from repro.crowd import AgentStates, CrowdSimulator
from repro.crowd.social_force import enforce_separation
from repro.geometry import Room


def overlapping_agents():
    rng = np.random.default_rng(0)
    positions = np.array([[5.0, 5.0], [5.1, 5.0], [8.0, 8.0]])
    return AgentStates.spawn(positions, rng), Room.square(10.0)


class TestEnforceSeparation:
    def test_overlapping_pair_separated(self):
        agents, room = overlapping_agents()
        enforce_separation(agents, room, iterations=5)
        gap = np.linalg.norm(agents.positions[0] - agents.positions[1])
        assert gap >= 0.5 - 0.05  # contact distance = 2 * 0.25

    def test_nonoverlapping_agents_untouched(self):
        agents, room = overlapping_agents()
        before = agents.positions[2].copy()
        enforce_separation(agents, room, iterations=5)
        np.testing.assert_allclose(agents.positions[2], before)

    def test_positions_stay_in_room(self):
        rng = np.random.default_rng(1)
        positions = np.full((4, 2), 0.05)  # all piled in a corner
        agents = AgentStates.spawn(positions, rng)
        room = Room.square(6.0)
        enforce_separation(agents, room, iterations=8)
        assert room.contains(agents.positions).all()

    def test_idempotent_on_separated_crowd(self):
        agents, room = overlapping_agents()
        enforce_separation(agents, room, iterations=8)
        after_first = agents.positions.copy()
        enforce_separation(agents, room, iterations=8)
        np.testing.assert_allclose(agents.positions, after_first, atol=1e-9)


class TestSimulatedCrowdSeparation:
    def test_simulated_crowd_respects_bodies(self):
        """In a feasible-density room, simulated users rarely interpenetrate."""
        room = Room.square(6.0)   # 36 m^2 for 40 agents: feasible
        trajectory = CrowdSimulator(room, seed=0).simulate(40, 10)
        final = trajectory[10]
        deltas = final[:, None, :] - final[None, :, :]
        distances = np.linalg.norm(deltas, axis=-1)
        np.fill_diagonal(distances, np.inf)
        # Allow small residual overlap from the last integration step.
        assert distances.min() > 0.4

    def test_min_distance_bounds_arc_width(self):
        """Non-penetration caps occlusion arcs below ~90 degrees for
        other users' views (the property that keeps Nearest viable)."""
        from tests.oracles import OcclusionGraphConverter
        room = Room.square(6.0)
        trajectory = CrowdSimulator(room, seed=1).simulate(30, 5)
        graph = OcclusionGraphConverter().convert(trajectory[5], 0)
        # Every non-target half-width strictly below pi/2 means no user
        # is inside another's body.
        others = np.arange(30) != 0
        assert (graph.half_widths[others] < np.pi / 2).all()
