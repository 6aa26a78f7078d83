"""Deterministic stress tests for the micro-batching session engine.

The engine's admission control is pure queue-depth arithmetic, so even
a run with deliberately *slow* recommender steps (injected sleeps) must
be exactly reproducible: no step lost or
duplicated, per-room step order strictly monotone, and the set of shed
steps equal — as a set of ``(session, step)`` pairs — to the
``session.shed`` events and to the shed tickets handed out at submit
time.  Everything here is seeded; nothing depends on wall-clock.
"""

import time
from collections import Counter

import numpy as np

from repro.core import AfterProblem, evaluate_episode
from repro.models.baselines import NearestRecommender
from repro.obs import EventLog
from repro.serving import ReplayDriver, SessionEngine

from .conftest import make_room

NUM_ROOMS = 8
NUM_STEPS = 6          # horizon: rooms stream NUM_STEPS + 1 frames


class SlowStepRecommender(NearestRecommender):
    """Nearest with seeded sleeps injected into ~20% of its steps.

    The sleep set is drawn from the instance's seed, not from time, so
    two runs slow down exactly the same (room, step) pairs.  Stressing
    with real delays proves the shed pattern is schedule-determined,
    not timing-determined.
    """

    def __init__(self, seed: int, sleep_s: float = 0.002):
        self._slow = set(np.random.default_rng(seed)
                         .choice(NUM_STEPS + 1,
                                 size=max(1, (NUM_STEPS + 1) // 5),
                                 replace=False).tolist())
        self._sleep_s = sleep_s
        self._calls = 0

    def recommend(self, frame):
        if self._calls in self._slow:
            time.sleep(self._sleep_s)
        self._calls += 1
        return super().recommend(frame)


def run_workload(*, pump_interval, max_queue, degrade_at=None,
                 slow=False):
    """One seeded multi-room replay; returns everything observable."""
    rooms = [make_room("timik", 8, NUM_STEPS, seed=100 + index)
             for index in range(NUM_ROOMS)]
    events = EventLog(enabled=True)
    engine = SessionEngine(max_batch=4, max_queue=max_queue,
                           degrade_at=degrade_at, events=events)
    driver = ReplayDriver(engine, pump_interval=pump_interval)
    for index, room in enumerate(rooms):
        recommender = (SlowStepRecommender(seed=index) if slow
                       else NearestRecommender())
        driver.add_room(room, target=0, recommender=recommender,
                        session_id=f"room{index}")
    tickets = driver.run()
    sessions = {f"room{index}": engine.session(f"room{index}")
                for index in range(NUM_ROOMS)}
    return rooms, sessions, tickets, events


def test_no_lost_or_duplicated_steps_and_monotone_order():
    _, sessions, tickets, _ = run_workload(
        pump_interval=3, max_queue=10, slow=True)
    for session_id, session in sessions.items():
        indices = [step.t for step in session.steps]
        # Exactly one record per submitted frame, in submit order.
        assert indices == list(range(NUM_STEPS + 1)), session_id
        assert len(tickets[session_id]) == NUM_STEPS + 1


def test_shed_steps_match_shed_events_and_tickets():
    _, sessions, tickets, events = run_workload(
        pump_interval=3, max_queue=10, slow=True)
    shed_steps = sorted((sid, step.t) for sid, session in sessions.items()
                        for step in session.steps if step.shed)
    shed_events = sorted((record["session_id"], record["step"])
                         for record in events.records
                         if record["type"] == "session.shed")
    shed_tickets = sorted((ticket.session_id, ticket.t)
                          for batch in tickets.values() for ticket in batch
                          if ticket.status == "shed")
    assert shed_steps == shed_events == shed_tickets
    assert shed_steps   # the workload genuinely overloads the queue
    for session in sessions.values():
        assert session.shed_count == sum(s.shed for s in session.steps)


def test_degraded_steps_match_degrade_events():
    _, sessions, tickets, events = run_workload(
        pump_interval=2, max_queue=16, degrade_at=6, slow=True)
    degraded = sorted((sid, step.t) for sid, session in sessions.items()
                      for step in session.steps if step.degraded)
    degrade_events = sorted((record["session_id"], record["step"])
                            for record in events.records
                            if record["type"] == "session.degrade")
    degraded_tickets = sorted((ticket.session_id, ticket.t)
                              for batch in tickets.values()
                              for ticket in batch
                              if ticket.status == "degraded")
    assert degraded == degrade_events == degraded_tickets
    assert degraded


def fingerprint(sessions, tickets):
    """Everything that must be identical across repeated runs."""
    return (
        sorted((ticket.session_id, ticket.t, ticket.status)
               for batch in tickets.values() for ticket in batch),
        {sid: [(step.t, step.shed, step.degraded,
                step.rendered.tobytes()) for step in session.steps]
         for sid, session in sessions.items()},
    )


def test_stress_run_is_deterministic():
    """Slow steps + overload: two runs are bit-identical."""
    first = run_workload(pump_interval=3, max_queue=10,
                         degrade_at=7, slow=True)
    second = run_workload(pump_interval=3, max_queue=10,
                          degrade_at=7, slow=True)
    assert fingerprint(first[1], first[2]) == fingerprint(second[1],
                                                          second[2])
    # ... and independent of the injected sleeps: the shed/degrade
    # pattern is decided at submit time, before they can matter.
    third = run_workload(pump_interval=3, max_queue=10,
                         degrade_at=7, slow=False)
    assert fingerprint(first[1], first[2]) == fingerprint(third[1],
                                                          third[2])


def test_processed_prefix_matches_offline_before_first_shed():
    """Until a room first sheds, its stream equals the offline episode."""
    rooms, sessions, _, _ = run_workload(
        pump_interval=3, max_queue=10, slow=True)
    for index, room in enumerate(rooms):
        session = sessions[f"room{index}"]
        reference = evaluate_episode(
            AfterProblem(room=room, target=0, beta=0.5),
            NearestRecommender())
        shed_at = next((step.t for step in session.steps if step.shed),
                       NUM_STEPS + 1)
        streamed = np.stack([step.rendered for step in session.steps])
        np.testing.assert_array_equal(
            reference.recommendations[:shed_at], streamed[:shed_at])


def test_close_session_reports_counts():
    _, _, _, _ = run_workload(pump_interval=1, max_queue=64)
    events = EventLog(enabled=True)
    engine = SessionEngine(max_batch=4, events=events)
    room = make_room("smm", 8, 3, seed=5)
    engine.open_session(AfterProblem(room=room, target=0, beta=0.5),
                        NearestRecommender(), session_id="solo")
    for t in range(4):
        engine.submit("solo", room.trajectory.positions[t])
    engine.drain()
    engine.close_session("solo")
    closes = [r for r in events.records if r["type"] == "session.close"]
    assert len(closes) == 1
    assert closes[0]["steps"] == 4
    assert closes[0]["shed"] == 0
    counts = Counter(r["type"] for r in events.records)
    assert counts["session.open"] == 1
