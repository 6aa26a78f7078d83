"""Room-sharded serving fleet: a router over N worker processes.

One :class:`~repro.serving.SessionEngine` saturates a single core — the
batched geometry kernels are CPU-bound — so rooms beyond one core's
worth must spread over processes.  :class:`Fleet` is that spread: it
forks ``num_shards`` workers (each running its own engine, see
:func:`~repro.serving.transport.shard_main`), places rooms on shards by
**consistent hashing** over session ids, forwards ``submit``/``pump``
over the length-prefixed pipe protocol.  The router only routes: every
session operation is the worker engine's own method, called by name
(``drain``, ``merge_sessions`` and the rest), so a room behaves the
same on a fleet as on one engine.  While serving, worker state is read
through the engine's read-only ``telemetry_sample``
(:meth:`Fleet.telemetry_sample`); :meth:`Fleet.close` folds every
shard's final PERF/EVENTS state back into the parent registry with the
exact cross-process merge ``repro.obs`` already provides — once as
aggregate totals, once shard-tagged (``shard0/serving.pump``) so skew
stays visible.

Frames are pickled by value through the pipe: an ``(N, 2)`` float64
position frame is 3.2 KB at N = 200, so there is nothing for a
zero-copy transport to save.

**Live migration** moves a room between shards without losing a step:
:meth:`Fleet.migrate` suspends the session on its source shard — the
bit-identical :class:`~repro.serving.SessionSnapshot` plus the
*unprocessed* pending queue, admission decisions intact — resumes it on
the target, and re-routes subsequent submits.  Because the queue is
handed off rather than re-admitted, a migrated room's
:class:`~repro.core.evaluation.EpisodeResult` is byte-equal to a run
that never moved (``tests/serving/test_migration_parity.py`` pins this
with Hypothesis over arbitrary cut points, including mid-degrade cuts).

Failure semantics: a dead worker (crash, kill) surfaces as
:class:`ShardFailure` naming the shard and the sessions that lived on
it — their carried state is lost unless previously suspended; the other
shards keep serving, and the failed shard's rooms can be reopened on
survivors.  See docs/SERVING.md.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from ..core.problem import AfterProblem
from ..core.recommender import Recommender
from ..obs import EVENTS, PERF
from .engine import StepTicket
from .session import RosterChange, SessionMerge, SessionSplit
from .transport import ChannelClosed, PipeChannel, channel_pair

__all__ = ["HashRing", "Fleet", "FleetStep", "FleetError", "ShardFailure"]


class FleetError(RuntimeError):
    """Base class for fleet-level serving failures."""


class ShardFailure(FleetError):
    """A worker process died; its live sessions' state is lost."""

    def __init__(self, shard: int, sessions):
        self.shard = shard
        self.sessions = sorted(sessions)
        super().__init__(
            f"shard {shard} is dead; lost sessions: {self.sessions}")


class HashRing:
    """Consistent hashing of string keys onto ``shards`` buckets.

    Each shard owns ``replicas`` pseudo-random points on a ring (BLAKE2b
    positions, stable across processes and Python runs — never
    ``hash()``, which is salted); a key lands on the first point at or
    after its own position.  Adding or removing one shard moves only the
    keys in that shard's arcs, which is what makes rebalancing-by-
    migration incremental instead of a full reshuffle.
    """

    def __init__(self, shards: int, replicas: int = 64):
        if shards < 1:
            raise ValueError("need at least one shard")
        if replicas < 1:
            raise ValueError("need at least one replica point per shard")
        self.shards = shards
        self.replicas = replicas
        points = []
        for shard in range(shards):
            for replica in range(replicas):
                points.append((self._position(f"shard{shard}:{replica}"),
                               shard))
        points.sort()
        self._points = [position for position, _ in points]
        self._owners = [shard for _, shard in points]

    @staticmethod
    def _position(key: str) -> int:
        return int.from_bytes(
            hashlib.blake2b(key.encode(), digest_size=8).digest(), "big")

    def place(self, key: str) -> int:
        """The shard owning ``key`` (deterministic, process-independent)."""
        index = bisect_right(self._points, self._position(key))
        return self._owners[index % len(self._owners)]


@dataclass(frozen=True)
class FleetStep:
    """Router-side summary of one completed (or shed) worker step."""

    shard: int
    t: int
    shed: bool
    degraded: bool
    latency_s: float


@dataclass
class _Shard:
    """Router-side handle for one worker process."""

    index: int
    process: object
    channel: PipeChannel
    alive: bool = True


def _worker_entry(router_channel: PipeChannel, worker_channel: PipeChannel,
                  shard: int, engine_kwargs: dict) -> None:
    """Forked child entry: drop the router's endpoint, serve the shard."""
    from .transport import shard_main

    router_channel.close()
    shard_main(worker_channel, shard, engine_kwargs)


class Fleet:
    """Consistent-hash router over ``num_shards`` engine processes.

    Parameters
    ----------
    num_shards:
        Worker process count (each one core's worth of serving).
    max_batch:
        Passed through to every shard's :class:`SessionEngine`.
    max_queue, degrade_at:
        **Fleet-wide** admission budgets, divided evenly across shards
        (ceiling division, min 1) so each shard's existing degrade/shed
        ladder enforces its share — per-shard admission control with
        the single-engine semantics unchanged at ``num_shards=1``.
    replicas:
        Virtual nodes per shard on the placement ring.
    events:
        Router-side event sink (default the global
        :data:`~repro.obs.EVENTS`); worker-side session events are
        folded in shard-tagged by :meth:`close`.
    recorder:
        Optional :class:`~repro.obs.FlightRecorder`: a detected shard
        death dumps an incident bundle capturing the recent span/event
        rings, alongside the ``fleet.shard_failure`` event.
    """

    def __init__(self, num_shards: int, *, max_batch: int = 32,
                 max_queue: int = 256, degrade_at: int | None = None,
                 replicas: int = 64, events=None, recorder=None):
        if num_shards < 1:
            raise ValueError("num_shards must be positive")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "Fleet needs the 'fork' start method (POSIX only)")
        per_shard_queue = max(1, math.ceil(max_queue / num_shards))
        per_shard_degrade = None
        if degrade_at is not None:
            per_shard_degrade = min(per_shard_queue,
                                    max(1, math.ceil(degrade_at
                                                     / num_shards)))
        engine_kwargs = {"max_batch": max_batch,
                         "max_queue": per_shard_queue,
                         "degrade_at": per_shard_degrade}
        self.num_shards = num_shards
        self.events = events if events is not None else EVENTS
        self.recorder = recorder
        self._ring = HashRing(num_shards, replicas)
        self._sessions: dict[str, int] = {}      # session id -> shard
        self._closed = False
        context = multiprocessing.get_context("fork")
        self._shards: list[_Shard] = []
        for index in range(num_shards):
            router_channel, worker_channel = channel_pair()
            process = context.Process(
                target=_worker_entry,
                args=(router_channel, worker_channel, index, engine_kwargs),
                name=f"serving-shard-{index}", daemon=True)
            process.start()
            worker_channel.close()
            self._shards.append(_Shard(index=index, process=process,
                                       channel=router_channel))

    # ------------------------------------------------------------------
    # RPC plumbing
    # ------------------------------------------------------------------
    def _shard(self, index: int) -> _Shard:
        shard = self._shards[index]
        if not shard.alive:
            raise ShardFailure(index, self.sessions_on(index))
        return shard

    def _mark_dead(self, index: int) -> ShardFailure:
        shard = self._shards[index]
        shard.alive = False
        shard.channel.close()
        failure = ShardFailure(index, self.sessions_on(index))
        self.events.emit("fleet.shard_failure", shard=index,
                         sessions=failure.sessions)
        if self.recorder is not None:
            try:
                self.recorder.dump(f"shard{index}-failure",
                                   extra={"shard": index,
                                          "sessions": failure.sessions})
            except OSError:      # incident dir unwritable: keep serving
                pass
        return failure

    def _send(self, index: int, op: str, *args, **kwargs) -> None:
        try:
            self._shard(index).channel.send((op, args, kwargs))
        except ChannelClosed:
            raise self._mark_dead(index) from None

    def _recv(self, index: int):
        try:
            status, value = self._shard(index).channel.recv()
        except ChannelClosed:
            raise self._mark_dead(index) from None
        if status == "error":
            raise value
        return value

    def _call(self, index: int, op: str, *args, **kwargs):
        self._send(index, op, *args, **kwargs)
        return self._recv(index)

    def _broadcast(self, op: str, *args) -> list[tuple[int, object]]:
        """Call ``op`` on every live shard; ``(shard, reply)`` pairs.

        The command goes to all shards before any reply is read, so the
        shards' work overlaps — this is where the multi-core scaling
        comes from.  Replies are gathered in shard order, keeping the
        merged result deterministic.  A failing shard does not cut the
        gather short: every other shard's reply is still read, so no
        stale reply is left in a pipe, and the first failure is raised
        afterwards.
        """
        sent, failure = [], None
        for shard in self._shards:
            if shard.alive:
                try:
                    self._send(shard.index, op, *args)
                    sent.append(shard.index)
                except FleetError as exc:
                    failure = failure or exc
        replies = []
        for index in sent:
            try:
                replies.append((index, self._recv(index)))
            except Exception as exc:
                failure = failure or exc
        if failure is not None:
            raise failure
        return replies

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def shard_of(self, session_id: str) -> int:
        """The shard currently serving an open session."""
        return self._sessions[session_id]

    def sessions_on(self, shard: int) -> list[str]:
        """Session ids currently routed to ``shard``."""
        return [session_id for session_id, owner
                in self._sessions.items() if owner == shard]

    @property
    def session_ids(self) -> list[str]:
        """All open sessions, in open order."""
        return list(self._sessions)

    # ------------------------------------------------------------------
    # Serving surface (mirrors SessionEngine's)
    # ------------------------------------------------------------------
    def open_session(self, problem: AfterProblem, recommender: Recommender,
                     *, session_id: str | None = None,
                     shard: int | None = None) -> str:
        """Open a room on its ring shard (or ``shard``); returns its id."""
        if session_id is None:
            session_id = f"{problem.room.name}/t{problem.target}"
        if session_id in self._sessions:
            raise ValueError(f"session {session_id!r} already open")
        if shard is None:
            shard = self._ring.place(session_id)
        elif not 0 <= shard < self.num_shards:
            raise ValueError(f"no shard {shard}")
        self._call(shard, "open_session", problem, recommender,
                   session_id=session_id)
        self._sessions[session_id] = shard
        self.events.emit("fleet.open", session_id=session_id, shard=shard,
                         room=problem.room.name, target=problem.target)
        return session_id

    def submit(self, session_id: str, positions: np.ndarray) -> StepTicket:
        """Route one frame to the session's shard; returns its ticket.

        The admission decision (queue/degrade/shed) is made by the
        shard's own engine against its share of the fleet budget.
        """
        shard = self._sessions[session_id]
        return self._call(shard, "submit", session_id,
                          np.asarray(positions, dtype=np.float64))

    def submit_many(self, items) -> list[StepTicket]:
        """Submit ``(session_id, positions)`` pairs, pipelined per shard.

        Sends every frame before reading any reply, so one tick's worth
        of submits costs one pipe round-trip per shard instead of one
        per room.
        """
        tickets: list[StepTicket] = []
        items = list(items)
        # Chunked so the unread-reply backlog can never fill a pipe and
        # stall a worker mid-write (which would deadlock the router).
        chunk = 256
        for start in range(0, len(items), chunk):
            order: list[int] = []
            for session_id, positions in items[start:start + chunk]:
                shard = self._sessions[session_id]
                self._send(shard, "submit", session_id,
                           np.asarray(positions, dtype=np.float64))
                order.append(shard)
            tickets.extend(self._recv(shard) for shard in order)
        return tickets

    def pump(self, max_batches: int | None = None) -> list[FleetStep]:
        """Pump every live shard concurrently; merged step summaries."""
        return self._steps("pump", max_batches)

    def drain(self) -> list[FleetStep]:
        """Drain every live shard concurrently (the engine's
        :meth:`~repro.serving.SessionEngine.drain`, trailing churn
        markers included); merged step summaries."""
        return self._steps("drain")

    def _steps(self, op: str, *args) -> list[FleetStep]:
        return [FleetStep(index, *record)
                for index, records in self._broadcast(op, *args)
                for record in records]

    def close_session(self, session_id: str):
        """Close a room on its shard; returns the final episode result."""
        shard = self._sessions[session_id]
        result = self._call(shard, "close_session", session_id)
        del self._sessions[session_id]
        self.events.emit("fleet.close", session_id=session_id, shard=shard)
        return result

    # ------------------------------------------------------------------
    # Population churn and room lifecycle
    # ------------------------------------------------------------------
    def churn_session(self, session_id: str,
                      change: RosterChange) -> None:
        """Mutate a live room's roster on its shard, queue-ordered.

        Forwards the self-contained :class:`RosterChange` to the owning
        shard's engine; frames already queued there still run at their
        pre-churn shape.
        """
        shard = self._sessions[session_id]
        self._call(shard, "churn_session", session_id, change)
        self.events.emit("fleet.churn", session_id=session_id,
                         shard=shard, churn=change.kind,
                         num_users=change.problem.num_users)

    def merge_sessions(self, primary_id: str, secondary_id: str,
                       merge: SessionMerge):
        """Fuse two rooms, possibly living on different shards.

        If the secondary lives on another shard, :meth:`migrate` first
        moves it onto the primary's, backlog and all; the primary's
        engine then runs its own
        :meth:`~repro.serving.SessionEngine.merge_sessions`.
        Returns the secondary's final
        :class:`~repro.core.evaluation.EpisodeResult`.
        """
        primary = self._sessions[primary_id]
        self.migrate(secondary_id, primary)
        result = self._call(primary, "merge_sessions", primary_id,
                            secondary_id, merge)
        del self._sessions[secondary_id]
        self.events.emit("fleet.merge", primary=primary_id,
                         secondary=secondary_id, shard=primary,
                         num_users=merge.problem.num_users)
        PERF.count("serving.merges")
        return result

    def split_session(self, session_id: str, split: SessionSplit,
                      recommender: Recommender, *,
                      shard: int | None = None) -> str:
        """Partition a room; the spun-off part lands on its ring shard.

        The split itself runs on the source's shard (its queue must be
        drained there): the continuing session churns down, the
        departing users spawn as a fresh seeded session.  The spawn is
        then migrated to ``shard`` (default: its ring placement), so
        steady-state routing is indistinguishable from a room opened
        there directly.  Returns the spawned session's id.
        """
        if split.session_id in self._sessions:
            raise ValueError(
                f"session {split.session_id!r} already open")
        source = self._sessions[session_id]
        if shard is None:
            shard = self._ring.place(split.session_id)
        elif not 0 <= shard < self.num_shards:
            raise ValueError(f"no shard {shard}")
        self._call(source, "split_session", session_id, split,
                   recommender)
        self._sessions[split.session_id] = source
        self.events.emit("fleet.split", session_id=session_id,
                         spawn=split.session_id, shard=source,
                         num_users=split.problem.num_users)
        PERF.count("serving.splits")
        if shard != source:
            self.migrate(split.session_id, shard)
        return split.session_id

    # ------------------------------------------------------------------
    # Rebalancing
    # ------------------------------------------------------------------
    def migrate(self, session_id: str, shard: int) -> int:
        """Move a live room to ``shard`` without losing a step.

        Drains the room's pending queue off the source shard (the
        unprocessed steps travel with their submit-time admission
        decisions), ships the suspended snapshot, resumes it on the
        target and re-routes subsequent submits.  If resuming on the
        target fails, the session is restored on the source, so a
        failed migration never strands a room.  Returns the new shard.
        """
        if not 0 <= shard < self.num_shards:
            raise ValueError(f"no shard {shard}")
        source = self._sessions[session_id]
        if shard == source:
            return source
        self._shard(shard)               # target must be alive up front
        snapshot, pending = self._call(source, "suspend_session",
                                       session_id)
        try:
            self._call(shard, "adopt_session", snapshot, pending)
        except Exception:
            self._call(source, "adopt_session", snapshot, pending)
            raise
        self._sessions[session_id] = shard
        self.events.emit("fleet.migrate", session_id=session_id,
                         source=source, target=shard,
                         step=snapshot.state["t_next"],
                         pending=len(pending))
        PERF.count("serving.migrations")
        return shard

    # ------------------------------------------------------------------
    # Observability and lifecycle
    # ------------------------------------------------------------------
    def telemetry_sample(self) -> list[dict]:
        """One read-only load sample from every live shard.

        Each worker answers with its engine's own
        :meth:`~repro.serving.SessionEngine.telemetry_sample` entry
        (queue depth, open sessions, cumulative
        :meth:`~repro.obs.Instrumentation.export_state` — never a
        reset), relabelled with its shard, in shard order: the shape
        :class:`~repro.obs.TelemetrySampler` consumes; dead shards are
        absent.  Call it from the thread that drives the fleet: the
        router reads each shard's pipe without a lock.
        """
        return [{**entry, "shard": index}
                for index, entries in self._broadcast("telemetry_sample")
                for entry in entries]

    def close(self) -> None:
        """Shut every worker down cleanly, folding in its final obs.

        Each live worker's instrumentation state is merged into the
        global :data:`~repro.obs.PERF` twice — unprefixed (exact
        aggregate fold, the totals a single-process run would have
        produced) and under ``shard<N>/`` (per-shard visibility) — and
        its session events are adopted into the fleet's event log
        tagged with ``shard=N``.
        """
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            if not shard.alive:
                continue
            try:
                state, records = self._call(shard.index, "shutdown")
                PERF.merge_snapshot(state)
                PERF.merge_snapshot(state, prefix=f"shard{shard.index}/")
                self.events.adopt(records, shard=shard.index)
            except (FleetError, ChannelClosed, OSError):
                pass
            shard.alive = False
            shard.channel.close()
        for shard in self._shards:
            shard.process.join(timeout=5.0)
            if shard.process.is_alive():
                shard.process.terminate()

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        live = sum(shard.alive for shard in self._shards)
        return (f"Fleet(shards={self.num_shards}, live={live}, "
                f"sessions={len(self._sessions)})")
