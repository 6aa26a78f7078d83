"""Cross-room micro-batching session engine with admission control.

Stepping ``B`` live rooms one at a time re-pays the kernels' NumPy
dispatch ``B`` times per tick.  :class:`SessionEngine` instead queues
submitted frames per session and, on each :meth:`pump`, collects up to
``max_batch`` pending steps (at most one per room, so per-room order
stays monotone) and runs them through :func:`step_sessions`, the one
step path: it groups them by ``(num_users, body_radius)`` and builds
every group's occlusion graphs in **one** call to
:meth:`~repro.geometry.batched.BatchedOcclusionConverter.convert_rooms`.
Frame assembly and visibility are batched per group the same way;
only the recommender forward runs per room.  A streamed
:meth:`~repro.serving.RoomSession.step` is the same function with one
room.

Admission control is *deterministic*: shed and degrade decisions depend
only on the queue depth at :meth:`submit` time — pure arithmetic over
the submit/pump sequence, never wall-clock — so an overloaded run is
exactly reproducible even with deliberately slow recommenders.  Over
``max_queue`` pending steps a submitted frame is **shed** (the room's
display freezes for that tick); over ``degrade_at`` it is served by the
session's cheap greedy-MWIS fallback instead of the primary
recommender.  Both paths are observable: ``serving.*`` timers,
histograms and counters through :data:`repro.obs.PERF` and
``session.open`` / ``session.shed`` / ``session.degrade`` /
``session.close`` events through :data:`repro.obs.EVENTS`.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..core.problem import AfterProblem
from ..core.recommender import Recommender
from ..core.scene import build_room_frames
from ..geometry import project_to_floor
from ..geometry.batched import BatchedOcclusionConverter
from ..geometry.visibility import resolve_rooms_visibility
from ..obs import DEFAULT_COUNT_BOUNDARIES, EVENTS, PERF
from .session import RoomSession, RosterChange, SessionMerge, \
    SessionSnapshot, SessionSplit, SessionStep

__all__ = ["StepTicket", "PendingStep", "SessionEngine", "floor_frame",
           "step_sessions"]


@dataclass(frozen=True)
class StepTicket:
    """Receipt for one submitted frame.

    ``status`` is the admission decision made at submit time:
    ``"queued"`` (will run on the primary recommender),
    ``"degraded"`` (will run on the fallback) or ``"shed"`` (dropped;
    the display freezes for this tick).
    """

    session_id: str
    t: int
    status: str


@dataclass
class PendingStep:
    """One queued (not yet pumped) step of a session.

    The admission decision (``degraded``/``shed``) was already made at
    submit time, so a pending step is self-contained: it can be popped
    off one engine's queue and re-enqueued on another —
    :meth:`SessionEngine.suspend_session` ships these across processes
    during a live migration — without re-running admission control.

    A non-``None`` ``change`` makes the entry a *churn marker* instead
    of a step: the roster mutation applies when the queue reaches it,
    so frames submitted before the churn still run at their pre-churn
    shape.  Markers carry no frame, are never shed, and are excluded
    from the engine's queue-depth arithmetic.
    """

    positions: np.ndarray | None
    degraded: bool
    shed: bool
    submitted_at: float
    change: RosterChange | None = None


def floor_frame(session_id: str, positions, num_users: int) -> np.ndarray:
    """One submitted frame as ``(num_users, 2)`` floor coordinates.

    Accepts ``(num_users, 2)`` floor points or ``(num_users, 3)``
    paper-convention ``(x, 0, z)`` points; anything else raises
    ``ValueError`` naming the session.  Projecting up front lets 2- and
    3-column frames share one ``(B, N, 2)`` geometry group.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] not in (2, 3) \
            or positions.shape[0] != num_users:
        raise ValueError(
            f"frame for session {session_id!r} has shape "
            f"{positions.shape}; expected ({num_users}, 2) floor or "
            f"({num_users}, 3) (x, 0, z) positions")
    return project_to_floor(positions)


def _carried_seeds(session: RoomSession,
                   keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project a session's carried display state along ``keep``.

    Returns ``(visible_previous, rendered_previous)`` in the new index
    space (``keep[i]`` = source index, ``-1`` = blank).  This is how a
    merge or split hands the moving users' last on-screen state to the
    receiving session instead of restarting them invisible.
    """
    keep = np.asarray(keep, dtype=np.int64)
    mask = keep >= 0
    visible = np.zeros(keep.shape[0], dtype=bool)
    rendered = np.zeros(keep.shape[0], dtype=bool)
    visible[mask] = session._visible_previous[keep[mask]]
    rendered[mask] = session._rendered_previous[keep[mask]]
    return visible, rendered


def step_sessions(steps: list, converters: dict) -> list[SessionStep]:
    """Advance each ``(session, positions, degraded)`` by one frame.

    The one step path: each :meth:`SessionEngine.pump` runs its
    micro-batch through it, and :meth:`RoomSession.step` runs it with
    one room.  ``positions`` are a :func:`floor_frame`.  Geometry, frame
    assembly and visibility run once per *group* (rooms sharing
    ``(num_users, body_radius)``) through the batched kernels; only the
    recommender forward — the one genuinely per-room piece — and the
    bookkeeping run per session.  Every kernel row equals that room
    stepped alone, so a batch equals stepping each room alone.
    ``converters`` caches one converter per body radius for the caller.
    Returns one record per entry, in order.
    """
    groups: dict[tuple, list[int]] = {}
    for index, (session, positions, _) in enumerate(steps):
        # Key off the *frame's* width, not a cached session shape:
        # churn can resize a room between submit and pump, and a
        # stale key would land a mismatched room in a (B, N, N)
        # geometry stack.  Queue-ordered churn markers guarantee
        # the session has reached the frame's shape by now.
        count = int(positions.shape[0])
        if count != session.num_users:
            raise RuntimeError(
                f"session {session.session_id!r} is serving a "
                f"{count}-user frame at roster width "
                f"{session.num_users}; a roster change was applied "
                f"out of queue order")
        key = (count, session.problem.room.body_radius)
        groups.setdefault(key, []).append(index)

    group_graphs: dict[tuple, list] = {}
    with PERF.scope("serving.geometry"):
        for (count, body_radius), indices in groups.items():
            stacked = np.empty((len(indices), count, 2))
            np.stack([steps[i][1] for i in indices], out=stacked)
            targets = np.array(
                [steps[i][0].problem.target for i in indices],
                dtype=np.int64)
            converter = converters.get(body_radius)
            if converter is None:
                converter = BatchedOcclusionConverter(
                    body_radius=body_radius)
                converters[body_radius] = converter
            # Keep the RoomGraphs batch container intact per group:
            # the frame and visibility kernels reuse its contiguous
            # arrays instead of re-stacking per-room views.
            group_graphs[(count, body_radius)] = converter.convert_rooms(
                stacked, targets)

    frames: list = [None] * len(steps)
    with PERF.scope("serving.frames"):
        for key, indices in groups.items():
            problems = [steps[i][0].problem for i in indices]
            built = build_room_frames(
                [steps[i][0].next_step for i in indices],
                [problem.target for problem in problems],
                group_graphs[key],
                [problem.room.preference[problem.target]
                 for problem in problems],
                [problem.room.presence[problem.target]
                 for problem in problems],
                [problem.room.interfaces_mr for problem in problems])
            for slot, problem, frame in zip(indices, problems, built):
                if problem.blocklist or problem.allowlist is not None:
                    problem._apply_lists(frame)
                frames[slot] = frame

    with PERF.scope("serving.recommend"):
        outputs = [session.recommend_step(frame, degraded=degraded)
                   for (session, _, degraded), frame in zip(steps, frames)]

    records: list = [None] * len(steps)
    with PERF.scope("serving.visibility"):
        for key, indices in groups.items():
            visible, rates = resolve_rooms_visibility(
                group_graphs[key],
                np.stack([outputs[i][0] for i in indices]),
                np.stack([frames[i].forced for i in indices]),
                np.stack([frames[i].blocked for i in indices]),
                np.stack([frames[i].forced_occluded for i in indices]))
            for row, slot in enumerate(indices):
                session, _, degraded = steps[slot]
                rendered, recommend_s = outputs[slot]
                records[slot] = session.complete_step(
                    frames[slot], rendered, recommend_s,
                    visible[row], rates[row], degraded=degraded)
    return records


class SessionEngine:
    """Micro-batching scheduler over many :class:`RoomSession` rooms.

    Parameters
    ----------
    max_batch:
        Upper bound on steps per micro-batch (and per
        ``convert_rooms`` call).
    max_queue:
        Admission limit: a submit finding this many steps already
        pending is shed.
    degrade_at:
        Soft watermark (``None`` disables): a submit finding at least
        this many pending steps is admitted but served by the session's
        fallback recommender.
    events:
        Event sink (default the global :data:`~repro.obs.EVENTS`).
    """

    def __init__(self, *, max_batch: int = 32, max_queue: int = 256,
                 degrade_at: int | None = None, events=None):
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        if max_queue < 1:
            raise ValueError("max_queue must be positive")
        if degrade_at is not None and not 0 < degrade_at <= max_queue:
            raise ValueError("degrade_at must be in (0, max_queue]")
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.degrade_at = degrade_at
        self.events = events if events is not None else EVENTS
        self._sessions: dict[str, RoomSession] = {}
        self._queues: dict[str, deque[PendingStep]] = {}
        self._tail_users: dict[str, int] = {}   # roster width at queue tail
        self._converters: dict[float, BatchedOcclusionConverter] = {}
        self._queued = 0          # pending steps across all sessions
        self._cursor = 0          # round-robin start for _collect_batch

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Number of submitted steps not yet pumped (shed ones included)."""
        return self._queued

    @property
    def open_sessions(self) -> int:
        """Number of currently registered sessions."""
        return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        """Whether ``session_id`` is registered here."""
        return session_id in self._sessions

    def telemetry_sample(self) -> list[dict]:
        """One live load sample, in the fleet's per-shard shape.

        A bare engine reports itself as shard 0 with its queue depth,
        open-session count and the cumulative :data:`~repro.obs.PERF`
        state; a :class:`~repro.serving.Fleet` gathers this same entry
        from every worker and relabels its shard, so a
        :class:`~repro.obs.TelemetrySampler` works identically over an
        in-process engine and a forked fleet.  Read-only: the registry
        is never reset.
        """
        return [{"shard": 0, "queue_depth": self._queued,
                 "open_sessions": len(self._sessions),
                 "perf": PERF.export_state()}]

    def session(self, session_id: str) -> RoomSession:
        """The live session registered under ``session_id``."""
        return self._sessions[session_id]

    def _register(self, session: RoomSession, pending=()) -> RoomSession:
        """Register a started session with its (possibly empty) backlog.

        The one way a session enters the engine: :meth:`open_session`,
        :meth:`adopt_session` and the spawn of :meth:`split_session`.
        """
        if session.session_id in self._sessions:
            raise ValueError(
                f"session {session.session_id!r} already open")
        queue = deque(pending)
        self._sessions[session.session_id] = session
        self._queues[session.session_id] = queue
        self._queued += sum(1 for p in queue if p.change is None)
        width = session.num_users
        for entry in queue:
            if entry.change is not None:
                width = entry.change.problem.num_users
        self._tail_users[session.session_id] = width
        return session

    def _settled(self, session_id: str, action: str) -> RoomSession:
        """The session, with its leading markers applied and no
        runnable step left; ``action`` names the refused operation.

        Leading shed and churn markers cost nothing to apply, so a
        queue holding only markers — an overloaded room whose every
        remaining submit was dropped, or a churn with no frames behind
        it — does not block: the markers are applied here exactly as
        :meth:`_collect_batch` would have, and only *runnable* steps
        left behind raise.
        """
        if session_id not in self._sessions:
            raise KeyError(f"unknown session {session_id!r}")
        session = self._sessions[session_id]
        queue = self._queues[session_id]
        self._apply_leading_markers(session, queue)
        if queue:
            raise RuntimeError(
                f"session {session_id!r} still has queued steps; "
                f"pump() or drain() before {action}")
        return session

    def open_session(self, problem: AfterProblem, recommender: Recommender,
                     *, session_id: str | None = None) -> RoomSession:
        """Register and start a room; the recommender is session-cloned.

        Cloning means callers may hand the same recommender instance to
        every room — each session still steps an independent copy, so
        carried state never leaks across rooms.
        """
        session = self._register(RoomSession(
            problem, recommender.session_clone(),
            session_id=session_id).begin())
        self.events.emit("session.open", session_id=session.session_id,
                         room=problem.room.name, target=problem.target,
                         recommender=session.recommender.name,
                         num_users=problem.num_users)
        return session

    def close_session(self, session_id: str) -> RoomSession:
        """Deregister a room (its queue must be drained) and return it.

        Its leading shed and churn markers are applied first; only
        runnable steps left behind raise (see :meth:`_settled`).
        """
        session = self._settled(session_id, "closing")
        del self._sessions[session_id]
        del self._queues[session_id]
        del self._tail_users[session_id]
        self.events.emit("session.close", session_id=session_id,
                         steps=len(session.steps),
                         shed=session.shed_count,
                         degraded=session.degraded_count)
        return session

    def suspend_session(
            self, session_id: str) -> tuple[SessionSnapshot,
                                            list[PendingStep]]:
        """Extract a session and its pending queue for live migration.

        Deregisters the room and returns its bit-exact
        :class:`~repro.serving.session.SessionSnapshot` together with
        the *unprocessed* pending steps, in submit order and with their
        submit-time admission decisions intact.  Feeding both to another
        engine's :meth:`adopt_session` continues the stream with results
        byte-equal to never having moved — the queue is handed off, not
        re-admitted, so shed/degrade patterns cannot drift.
        """
        if session_id not in self._sessions:
            raise KeyError(f"unknown session {session_id!r}")
        session = self._sessions.pop(session_id)
        pending = list(self._queues.pop(session_id))
        self._tail_users.pop(session_id, None)
        self._queued -= sum(1 for p in pending if p.change is None)
        snapshot = session.suspend()
        self.events.emit("session.suspend", session_id=session_id,
                         step=session.next_step, pending=len(pending))
        return snapshot, pending

    def adopt_session(self, snapshot: SessionSnapshot,
                      pending=()) -> RoomSession:
        """Resume a suspended session here, re-enqueueing its backlog.

        The inverse of :meth:`suspend_session`: ``pending`` steps join
        this engine's queue exactly as they left the source's (same
        order, same already-made shed/degrade flags).
        """
        session = self._register(RoomSession.resume(snapshot), pending)
        self.events.emit("session.adopt", session_id=session.session_id,
                         step=session.next_step,
                         pending=len(self._queues[session.session_id]))
        return session

    # An engine holds no OS resources; the context-manager protocol
    # only mirrors Fleet's, so drivers can scope either one with ``with``.
    def __enter__(self) -> "SessionEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    # ------------------------------------------------------------------
    def submit(self, session_id: str, positions: np.ndarray) -> StepTicket:
        """Queue one frame for a room, deciding admission *now*.

        The decision depends only on :attr:`queue_depth`, so the full
        shed/degrade pattern of a run is a deterministic function of
        the submit/pump call sequence.  A frame must be
        ``(num_users, 2)`` floor or ``(num_users, 3)`` ``(x, 0, z)``
        positions at the roster width of the queue tail; anything else
        raises ``ValueError`` before it is queued.  The queue stores its
        floor projection.
        """
        if session_id not in self._sessions:
            raise KeyError(f"unknown session {session_id!r}")
        session = self._sessions[session_id]
        positions = np.asarray(positions, dtype=np.float64)
        expected = self._tail_users[session_id]
        if positions.ndim and positions.shape[0] != expected:
            raise ValueError(
                f"frame for session {session_id!r} has "
                f"{positions.shape[0]} users but the roster at the queue "
                f"tail has {expected}")
        floor = floor_frame(session_id, positions, expected)
        queue = self._queues[session_id]
        t = session.next_step + sum(
            1 for p in queue if p.change is None)

        if self._queued >= self.max_queue:
            self._queues[session_id].append(
                PendingStep(positions=None, degraded=False, shed=True,
                         submitted_at=time.perf_counter()))
            self._queued += 1
            PERF.count("serving.submitted_shed")
            self.events.emit("session.shed", session_id=session_id,
                             step=t, queue_depth=self._queued)
            return StepTicket(session_id, t, "shed")

        degraded = (self.degrade_at is not None
                    and self._queued >= self.degrade_at)
        self._queues[session_id].append(
            PendingStep(positions=floor, degraded=degraded, shed=False,
                        submitted_at=time.perf_counter()))
        self._queued += 1
        PERF.observe("serving.queue_depth", float(self._queued),
                     boundaries=DEFAULT_COUNT_BOUNDARIES)
        if degraded:
            PERF.count("serving.submitted_degraded")
            self.events.emit("session.degrade", session_id=session_id,
                             step=t, queue_depth=self._queued)
            return StepTicket(session_id, t, "degraded")
        return StepTicket(session_id, t, "queued")

    # ------------------------------------------------------------------
    def churn_session(self, session_id: str, change: RosterChange) -> None:
        """Mutate a live session's roster, queue-ordered with its steps.

        With an empty queue the change applies immediately; otherwise a
        churn marker joins the queue so every frame submitted *before*
        the churn is still served at its pre-churn shape.  Frames
        submitted after must match the new roster — :meth:`submit`
        validates against the width at the queue tail.  Markers do not
        count toward :attr:`queue_depth`, so admission decisions are
        unchanged by churn.
        """
        if session_id not in self._sessions:
            raise KeyError(f"unknown session {session_id!r}")
        queue = self._queues[session_id]
        queued = bool(queue)
        if queued:
            queue.append(PendingStep(
                positions=None, degraded=False, shed=False,
                submitted_at=time.perf_counter(), change=change))
        else:
            self._sessions[session_id].apply_churn(change)
        self._tail_users[session_id] = change.problem.num_users
        PERF.count("serving.churns")
        self.events.emit("session.churn", session_id=session_id,
                         churn=change.kind,
                         num_users=change.problem.num_users,
                         queued=queued)

    def merge_sessions(self, primary_id: str, secondary_id: str,
                       merge: SessionMerge) -> RoomSession:
        """Fuse two rooms: the secondary closes into the primary.

        The secondary's queue must be drained (its users' final display
        state seeds their joiner slots in the primary, so no steps may
        still be in flight there); the primary may keep a backlog — its
        merge rides the queue as an ordinary churn marker.  Returns the
        closed secondary session so callers can collect its episode
        result.
        """
        if primary_id not in self._sessions:
            raise KeyError(f"unknown session {primary_id!r}")
        secondary = self._settled(secondary_id, "merging")
        # The absorbed users arrive as joiners seeded with their last
        # display state out of the secondary.
        seed_visible, seed_rendered = _carried_seeds(
            secondary, merge.keep_secondary)
        change = RosterChange(kind="merge", problem=merge.problem,
                              keep=merge.keep, seed_visible=seed_visible,
                              seed_rendered=seed_rendered)
        closed = self.close_session(secondary_id)
        self.churn_session(primary_id, change)
        self.events.emit("session.merge", primary=primary_id,
                         secondary=secondary_id,
                         num_users=merge.problem.num_users)
        return closed

    def split_session(self, session_id: str, split: SessionSplit,
                      recommender: Recommender) -> RoomSession:
        """Partition a room: part stays, part spawns a new session.

        The source's queue must be drained (the departing users' seeds
        read its carried display state, and the spawn starts at the
        source's step clock).  The continuing part churns down via
        ``split.retain``; the departing part opens as a fresh session —
        new recommender, carried display seeds — under
        ``split.session_id``.  Returns the spawned session.
        """
        if split.session_id in self._sessions:
            raise ValueError(
                f"session {split.session_id!r} already open")
        session = self._settled(session_id, "splitting")
        seed_visible, seed_rendered = _carried_seeds(session, split.keep)
        t_next = session.next_step
        self.churn_session(session_id, split.retain)
        spawn = self._register(RoomSession.seeded(
            split.problem, recommender.session_clone(),
            session_id=split.session_id, t_next=t_next,
            visible_previous=seed_visible, rendered_previous=seed_rendered))
        self.events.emit("session.split", session_id=session_id,
                         spawn=spawn.session_id,
                         num_users=split.problem.num_users,
                         retained=split.retain.problem.num_users)
        return spawn

    # ------------------------------------------------------------------
    def _apply_leading_markers(self, session: RoomSession,
                               queue: deque) -> list[SessionStep]:
        """Apply a queue's leading shed/churn markers.

        Shed markers produce frozen-display records (returned so
        :meth:`pump` can report them); churn markers mutate the session
        roster in place and produce nothing.  Both cost no batch slot.
        """
        records: list[SessionStep] = []
        while queue and (queue[0].shed or queue[0].change is not None):
            pending = queue.popleft()
            if pending.change is not None:
                session.apply_churn(pending.change)
                PERF.count("serving.churns_applied")
            else:
                self._queued -= 1
                records.append(session.shed_step())
                PERF.count("serving.steps_shed")
        return records

    def _collect_batch(self) -> tuple[list[tuple[RoomSession, PendingStep]],
                                      list[SessionStep]]:
        """Pop up to ``max_batch`` runnable steps, one per session.

        Sessions are visited round-robin from a rotating cursor — the
        cursor advances past the last session that contributed a step,
        so when ``max_batch`` is smaller than the number of open rooms
        each collection resumes where the previous one stopped instead
        of re-serving dict insertion order (which would permanently
        starve the latest-opened rooms).

        Leading shed markers are applied immediately (they cost
        nothing), preserving each queue's submit order; then the
        session's first real step, if any, joins the batch.  The applied
        shed records are returned alongside the batch so :meth:`pump`
        can report them.
        """
        batch: list[tuple[RoomSession, PendingStep]] = []
        shed: list[SessionStep] = []
        session_ids = list(self._queues)
        if not session_ids:
            return batch, shed
        start = self._cursor % len(session_ids)
        for offset in range(len(session_ids)):
            if len(batch) >= self.max_batch:
                break
            session_id = session_ids[(start + offset) % len(session_ids)]
            queue = self._queues[session_id]
            session = self._sessions[session_id]
            shed.extend(self._apply_leading_markers(session, queue))
            if queue:
                batch.append((session, queue.popleft()))
                self._queued -= 1
                self._cursor = (start + offset + 1) % len(session_ids)
        return batch, shed

    def _run_batch(self,
                   batch: list[tuple[RoomSession, PendingStep]]) -> list:
        """One micro-batch through :func:`step_sessions`, then the
        engine's latency and batch-size bookkeeping."""
        records = step_sessions(
            [(session, pending.positions, pending.degraded)
             for session, pending in batch], self._converters)
        done = time.perf_counter()
        for (_, pending), record in zip(batch, records):
            record.latency_s = done - pending.submitted_at
            PERF.observe("serving.step_latency_s", record.latency_s)
            PERF.count("serving.steps_degraded"
                       if record.degraded else "serving.steps")
        PERF.observe("serving.batch_size", float(len(batch)),
                     boundaries=DEFAULT_COUNT_BOUNDARIES)
        return records

    def pump(self, max_batches: int | None = None) -> list[SessionStep]:
        """Run queued steps in micro-batches; returns completed records.

        Processes batches until the queues are empty or ``max_batches``
        is hit.  Safe to interleave freely with :meth:`submit` — a
        replay driver typically submits one tick of every room, then
        pumps once.

        The returned list covers *every* step this pump consumed, shed
        ones included: a shed step's frozen-display record is appended
        in the order the collection applied it, so replay drivers
        counting ticks over the return value see exactly one record per
        consumed submission.
        """
        completed: list[SessionStep] = []
        batches = 0
        with PERF.scope("serving.pump"):
            while self._queued > 0:
                if max_batches is not None and batches >= max_batches:
                    break
                batch, shed = self._collect_batch()
                completed.extend(shed)
                if batch:
                    completed.extend(self._run_batch(batch))
                batches += 1
        return completed

    def drain(self) -> list[SessionStep]:
        """Pump until every queue is empty.

        Also applies trailing churn markers — entries that do not count
        toward :attr:`queue_depth`, so the pump loop alone would leave
        a roster change with no frames behind it pending.  After a
        drain every session has reached its latest announced roster.
        """
        records = self.pump(max_batches=None)
        for session_id, queue in self._queues.items():
            if queue:
                self._apply_leading_markers(
                    self._sessions[session_id], queue)
        return records
