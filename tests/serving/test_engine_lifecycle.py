"""Regression tests for engine scheduling fairness and lifecycle.

Three bugs pinned here:

* ``_collect_batch`` used to walk ``self._queues`` in dict insertion
  order on every pump, so with ``max_batch`` smaller than the number of
  open rooms the latest-opened rooms were *permanently* starved — the
  collection now round-robins from a rotating cursor;
* ``close_session`` used to raise for a queue holding only shed markers
  even though collection applies them for free, so an overloaded room
  could never be closed;
* ``pump()`` promised "completed records" but silently dropped the shed
  records applied during collection, so replay drivers counting the
  return value undercounted ticks.
"""

import numpy as np
import pytest

from repro.core import AfterProblem
from repro.models.baselines import NearestRecommender
from repro.obs import EventLog
from repro.serving import RoomSession, SessionEngine

from .conftest import make_room


def open_rooms(engine, count, num_steps=6, num_users=8):
    """Open ``count`` distinct rooms; returns their (id, room) pairs."""
    rooms = []
    for index in range(count):
        room = make_room("timik", num_users, num_steps, seed=200 + index)
        engine.open_session(AfterProblem(room=room, target=0, beta=0.5),
                            NearestRecommender(),
                            session_id=f"room{index}")
        rooms.append((f"room{index}", room))
    return rooms


class TestRoundRobinCollection:
    def test_no_starvation_at_max_batch_one(self):
        """3 rooms, max_batch=1: single-batch pumps stay balanced.

        The insertion-order scheduler processed room0's entire queue
        before room1 ever ran; round-robin keeps per-session processed
        counts within one step of each other after every pump.
        """
        engine = SessionEngine(max_batch=1, max_queue=64)
        rooms = open_rooms(engine, 3, num_steps=3)
        for t in range(3):
            for session_id, room in rooms:
                engine.submit(session_id, room.trajectory.positions[t])

        for pumps in range(1, 10):
            records = engine.pump(max_batches=1)
            assert len(records) == 1
            counts = [len(engine.session(session_id).steps)
                      for session_id, _ in rooms]
            assert max(counts) - min(counts) <= 1, \
                f"unbalanced after {pumps} pumps: {counts}"
            assert sum(counts) == pumps
        # Exactly 3 steps each, i.e. perfectly fair at the end.
        assert [len(engine.session(sid).steps) for sid, _ in rooms] \
            == [3, 3, 3]

    def test_rotation_survives_session_churn(self):
        """Closing a drained room never derails the cursor."""
        engine = SessionEngine(max_batch=1, max_queue=64)
        rooms = open_rooms(engine, 4, num_steps=2)
        for t in range(2):
            for session_id, room in rooms:
                engine.submit(session_id, room.trajectory.positions[t])
        # Drain one room with single-step pumps, close it, keep going.
        while len(engine.session("room0").steps) < 2:
            engine.pump(max_batches=1)
        engine.close_session("room0")
        engine.drain()
        for session_id, _ in rooms[1:]:
            assert len(engine.session(session_id).steps) == 2

    def test_full_drain_unchanged_by_rotation(self):
        """A full drain still processes every queued step exactly once."""
        engine = SessionEngine(max_batch=2, max_queue=64)
        rooms = open_rooms(engine, 3, num_steps=4)
        for t in range(4):
            for session_id, room in rooms:
                engine.submit(session_id, room.trajectory.positions[t])
        engine.drain()
        for session_id, _ in rooms:
            assert [s.t for s in engine.session(session_id).steps] \
                == list(range(4))


class TestCloseWithShedOnlyQueue:
    def engine_with_shed_tail(self):
        """One room whose queue ends as a single shed marker."""
        events = EventLog(enabled=True)
        engine = SessionEngine(max_batch=4, max_queue=2, events=events)
        room = make_room("smm", 8, 3, seed=50)
        engine.open_session(AfterProblem(room=room, target=0, beta=0.5),
                            NearestRecommender(), session_id="solo")
        for t in range(3):
            engine.submit("solo", room.trajectory.positions[t])
        # Depths at submit: 0, 1 (queued), 2 >= max_queue (shed).
        engine.pump(max_batches=1)
        engine.pump(max_batches=1)
        return engine, events

    def test_shed_only_queue_does_not_block_close(self):
        engine, events = self.engine_with_shed_tail()
        session = engine.close_session("solo")
        assert session.shed_count == 1
        assert [s.t for s in session.steps] == [0, 1, 2]
        assert session.steps[-1].shed
        closes = [r for r in events.records if r["type"] == "session.close"]
        assert len(closes) == 1 and closes[0]["shed"] == 1

    def test_runnable_steps_still_block_close(self):
        engine = SessionEngine(max_batch=4, max_queue=1)
        room = make_room("smm", 8, 3, seed=51)
        engine.open_session(AfterProblem(room=room, target=0, beta=0.5),
                            NearestRecommender(), session_id="solo")
        engine.submit("solo", room.trajectory.positions[0])   # queued
        engine.submit("solo", room.trajectory.positions[1])   # shed
        with pytest.raises(RuntimeError, match="queued steps"):
            engine.close_session("solo")
        # The refused close must not have consumed the shed marker.
        assert engine.queue_depth == 2
        engine.drain()
        engine.close_session("solo")


class TestPumpReturnsShedRecords:
    def test_drain_returns_one_record_per_submission(self):
        engine = SessionEngine(max_batch=2, max_queue=3)
        room = make_room("hubs", 8, 5, seed=60)
        engine.open_session(AfterProblem(room=room, target=0, beta=0.5),
                            NearestRecommender(), session_id="solo")
        tickets = [engine.submit("solo", room.trajectory.positions[t])
                   for t in range(6)]
        shed_submitted = sum(t.status == "shed" for t in tickets)
        assert shed_submitted > 0
        records = engine.drain()
        # Every submission — processed or shed — yields its record.
        assert len(records) == len(tickets)
        assert sum(r.shed for r in records) == shed_submitted
        assert sorted(r.t for r in records) == list(range(6))

    def test_returned_records_are_in_consumption_order(self):
        """Per session, pump's records carry strictly increasing t."""
        engine = SessionEngine(max_batch=1, max_queue=4)
        rooms = open_rooms(engine, 2, num_steps=5)
        for t in range(5):
            for session_id, room in rooms:
                engine.submit(session_id, room.trajectory.positions[t])
        records = engine.pump()
        for session_id, _ in rooms:
            ts = [s.t for s in engine.session(session_id).steps]
            assert ts == sorted(ts)
        assert len(records) == sum(
            len(engine.session(sid).steps) for sid, _ in rooms)

    def test_shed_records_match_session_records(self):
        engine = SessionEngine(max_batch=4, max_queue=2)
        room = make_room("timik", 8, 4, seed=61)
        engine.open_session(AfterProblem(room=room, target=0, beta=0.5),
                            NearestRecommender(), session_id="solo")
        for t in range(5):
            engine.submit("solo", room.trajectory.positions[t])
        records = engine.drain()
        session_records = engine.session("solo").steps
        assert [(r.t, r.shed) for r in records] \
            == [(r.t, r.shed) for r in session_records]


class TestBatchGroupingUnderResize:
    """A fourth pinned bug: ``_run_batch`` used to key its geometry
    groups by ``session.num_users`` captured at collection time, which
    assumed a session's roster width is immutable.  Queue-ordered churn
    broke that assumption — a room resized mid-episode could land a
    stale-width frame in a ``(B, N, N)`` stack shared with same-keyed
    rooms.  Groups are now keyed by the *frame's* width, submits are
    validated against the roster width at the queue tail, and a guard
    refuses to serve a frame whose width disagrees with the session."""

    def _leave_change(self, room, victim):
        """A RosterChange dropping universe user ``victim`` from a
        full-roster room (target stays at index 0)."""
        from repro.serving.workload import roster_change
        old = list(range(room.num_users))
        new = [u for u in old if u != victim]
        return roster_change(room, "leave", old, new, 0,
                             name=f"{room.name}/resized", beta=0.5,
                             max_render=10,
                             interfaces=room.interfaces_mr)

    def test_resize_never_lands_stale_width_frame_in_a_batch(self):
        """Two same-shape rooms batch together; after one shrinks, the
        mixed-width pump must split the groups and keep both rooms
        advancing with correct per-step widths."""
        with SessionEngine(max_batch=8) as engine:
            rooms = open_rooms(engine, 2, num_steps=6, num_users=8)
            for t in range(2):
                for sid, room in rooms:
                    engine.submit(sid, room.trajectory.positions[t])
                engine.pump()
            room0 = rooms[0][1]
            change = self._leave_change(room0, victim=5)
            engine.churn_session("room0", change)
            gather = [u for u in range(8) if u != 5]
            for t in range(2, 6):
                engine.submit("room0",
                              room0.trajectory.positions[t][gather])
                engine.submit("room1",
                              rooms[1][1].trajectory.positions[t])
                records = engine.pump()
                assert {record.t for record in records} == {t}
            widths = [step.rendered.shape[0]
                      for step in engine.session("room0").steps]
            assert widths == [7] * 6  # churn re-projects history too
            assert engine.session("room0").num_users == 7
            assert engine.session("room1").num_users == 8

    def test_submit_width_is_validated_against_queue_tail(self):
        """After a churn marker is queued, a frame at the *old* width
        is rejected at submit time — not discovered as a shape error
        deep in the geometry stack."""
        with SessionEngine(max_batch=4) as engine:
            (sid, room), = open_rooms(engine, 1, num_steps=6,
                                      num_users=8)
            positions = room.trajectory.positions
            engine.submit(sid, positions[0])   # pending pre-churn frame
            engine.churn_session(sid, self._leave_change(room, victim=3))
            with pytest.raises(ValueError, match="queue tail has 7"):
                engine.submit(sid, positions[1])
            gather = [u for u in range(8) if u != 3]
            engine.submit(sid, positions[1][gather])
            engine.drain()
            assert engine.session(sid).num_users == 7
            assert len(engine.session(sid).steps) == 2

    def test_eager_resize_also_updates_submit_validation(self):
        """With an empty queue the churn applies eagerly; the very next
        submit must already be held to the new width."""
        with SessionEngine(max_batch=4) as engine:
            (sid, room), = open_rooms(engine, 1, num_steps=6,
                                      num_users=8)
            engine.churn_session(sid, self._leave_change(room, victim=6))
            assert engine.session(sid).churn_count == 1
            with pytest.raises(ValueError, match="queue tail has 7"):
                engine.submit(sid, room.trajectory.positions[0])

    def test_stale_width_frame_is_refused_by_the_batch_guard(self):
        """Defence in depth: if a mismatched frame ever reaches the
        batch (here forged by bypassing submit validation), the pump
        refuses to serve it instead of corrupting the (B, N, N) stack."""
        from repro.serving import PendingStep

        with SessionEngine(max_batch=4) as engine:
            (sid, room), = open_rooms(engine, 1, num_steps=6,
                                      num_users=8)
            engine._queues[sid].append(PendingStep(
                positions=room.trajectory.positions[0][:5], shed=False,
                degraded=False, submitted_at=0.0))
            engine._queued += 1
            with pytest.raises(RuntimeError,
                               match="out of queue order"):
                engine.pump()


def lift(floor, height=1.7):
    """Floor ``(N, 2)`` points as paper-convention ``(x, y, z)`` points."""
    return np.column_stack([floor[:, 0], np.full(len(floor), height),
                            floor[:, 1]])


def step_bytes(record):
    """Everything a processed step reports, as comparable values."""
    return (record.t, record.rendered.tobytes(), record.occlusion_rate,
            record.utility.preference, record.utility.presence,
            record.degraded)


class TestFrameShapes:
    """Frames are validated at submit: ``(num_users, 2)`` floor or
    ``(num_users, 3)`` ``(x, 0, z)`` points, stored as their floor
    projection.  Mixed widths used to share a group key and fail the
    whole pump inside ``np.stack`` after both steps were dequeued; an
    ``(N, 1)`` frame passed submit and failed its batch at pump time."""

    def test_mixed_2d_3d_pump_equals_all_2d(self):
        results = []
        for mixed in (False, True):
            with SessionEngine(max_batch=8) as engine:
                rooms = open_rooms(engine, 3, num_steps=5)
                records = []
                for t in range(5):
                    for index, (sid, room) in enumerate(rooms):
                        floor = room.trajectory.positions[t]
                        engine.submit(sid, lift(floor)
                                      if mixed and index != 1 else floor)
                    records.extend(engine.pump())
                results.append(
                    ([step_bytes(record) for record in records],
                     [engine.session(sid).result().per_step_after.tobytes()
                      for sid, _ in rooms]))
        assert results[0] == results[1]

    @pytest.mark.parametrize("shape", [(8, 1), (8, 4), (8,), (7, 2),
                                       (7, 3), (8, 2, 1)])
    def test_bad_shape_raises_at_submit_before_queueing(self, shape):
        with SessionEngine(max_batch=4) as engine:
            (sid, room), = open_rooms(engine, 1, num_users=8)
            engine.submit(sid, room.trajectory.positions[0])
            depth = engine.queue_depth
            with pytest.raises(ValueError, match=sid):
                engine.submit(sid, np.zeros(shape))
            assert engine.queue_depth == depth
            assert len(engine._queues[sid]) == depth
            assert [record.t for record in engine.drain()] == [0]

    def test_wrong_width_step_raises_value_error(self):
        room = make_room("timik", 8, 3, seed=201)
        session = RoomSession(AfterProblem(room=room, target=0),
                              NearestRecommender()).begin()
        floor = room.trajectory.positions[0]
        for bad in (floor[:, :1], np.zeros((8, 4)), floor[:5]):
            with pytest.raises(ValueError, match="expected"):
                session.step(bad)
        assert session.next_step == 0
        lifted = RoomSession(AfterProblem(room=room, target=0),
                             NearestRecommender()).begin()
        assert step_bytes(session.step(floor)) \
            == step_bytes(lifted.step(lift(floor)))
