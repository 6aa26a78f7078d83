"""Length-prefixed pipe transport between the fleet router and shards.

One shard worker is one forked process running a plain request/response
loop over a pair of OS pipes.  The wire format is deliberately simple —
an 8-byte little-endian length header followed by a pickled payload —
so a message is exactly one framed blob, there is no interleaving to
reason about, and a broken pipe surfaces as :class:`ChannelClosed`
instead of a half-read.

Messages are ``(op, *args)`` tuples; replies are ``("ok", value)`` or
``("error", exception)`` — worker-side exceptions are pickled back and
re-raised in the router, so a bad ``submit`` fails the caller, not the
shard.
"""

from __future__ import annotations

import os
import pickle
import struct

from ..obs import PERF
from .engine import SessionEngine

__all__ = ["ChannelClosed", "PipeChannel", "channel_pair", "shard_main"]

_HEADER = struct.Struct("<Q")


class ChannelClosed(EOFError):
    """The peer hung up: EOF on read or EPIPE on write."""


class PipeChannel:
    """One endpoint of a duplex length-prefixed pipe connection."""

    def __init__(self, read_fd: int, write_fd: int):
        self._read_fd = read_fd
        self._write_fd = write_fd
        self._closed = False

    # ------------------------------------------------------------------
    def send(self, message) -> int:
        """Frame and write one message; returns the payload byte count."""
        payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            self._write_all(_HEADER.pack(len(payload)))
            self._write_all(payload)
        except (BrokenPipeError, OSError) as exc:
            raise ChannelClosed(str(exc)) from exc
        if PERF.enabled:
            PERF.count("serving.pipe_bytes", len(payload))
        return len(payload)

    def recv(self):
        """Read one framed message; :class:`ChannelClosed` on EOF."""
        header = self._read_exact(_HEADER.size)
        (length,) = _HEADER.unpack(header)
        return pickle.loads(self._read_exact(length))

    # ------------------------------------------------------------------
    def _write_all(self, data: bytes) -> None:
        view = memoryview(data)
        while view:
            view = view[os.write(self._write_fd, view):]

    def _read_exact(self, count: int) -> bytes:
        chunks = []
        remaining = count
        while remaining:
            chunk = os.read(self._read_fd, remaining)
            if not chunk:
                raise ChannelClosed("peer closed the pipe")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        """Close both file descriptors; idempotent."""
        if self._closed:
            return
        self._closed = True
        for fd in (self._read_fd, self._write_fd):
            try:
                os.close(fd)
            except OSError:
                pass


def channel_pair() -> tuple[PipeChannel, PipeChannel]:
    """Two connected endpoints (router end, worker end) over OS pipes."""
    to_worker_read, to_worker_write = os.pipe()
    to_router_read, to_router_write = os.pipe()
    router = PipeChannel(to_router_read, to_worker_write)
    worker = PipeChannel(to_worker_read, to_router_write)
    return router, worker


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _light_records(records) -> list[tuple]:
    """Completed-step summaries small enough to ship every pump.

    The full :class:`~repro.serving.session.SessionStep` records (with
    their render masks) stay on the worker, attached to the session;
    the router only needs identity, flags and latency.
    """
    return [(record.t, bool(record.shed), bool(record.degraded),
             float(record.latency_s)) for record in records]


def shard_main(channel: PipeChannel, shard: int,
               engine_kwargs: dict) -> None:
    """Run one shard: a :class:`SessionEngine` behind a command loop.

    Forked from the router, so the worker inherits the PERF registry's
    enabled flag; statistics are reset on entry so the state shipped back at
    shutdown covers exactly this shard's work, ready for the router's
    shard-tagged :meth:`~repro.obs.Instrumentation.merge_snapshot`.

    Worker state leaves the shard two ways only: the read-only
    ``sample`` op while serving, and the ``shutdown`` reply (the final
    obs state) at the end.  The loop also exits when the router
    vanishes (``ChannelClosed``).
    """
    from ..obs import EventLog

    PERF.reset()
    events = EventLog(enabled=True)
    # Session ids are unique fleet-wide and records are re-tagged with
    # the shard on adoption, so the worker log needs no shard field.
    with SessionEngine(events=events, **engine_kwargs) as engine:
        while True:
            try:
                message = channel.recv()
            except ChannelClosed:
                break
            op, args = message[0], message[1:]
            try:
                if op == "open":
                    problem, recommender, session_id = args
                    session = engine.open_session(problem, recommender,
                                                  session_id=session_id)
                    reply = session.session_id
                elif op == "submit":
                    session_id, positions = args
                    reply = engine.submit(session_id, positions)
                elif op == "pump":
                    (max_batches,) = args
                    reply = _light_records(engine.pump(max_batches))
                elif op == "sample":
                    # Read-only: never resets the registry, so sampling
                    # all through a run leaves the end-of-run
                    # shard-tagged merge exact.
                    reply = (engine.queue_depth, engine.open_sessions,
                             PERF.export_state())
                elif op == "result":
                    (session_id,) = args
                    reply = engine.session(session_id).result()
                elif op == "close_session":
                    (session_id,) = args
                    reply = engine.close_session(session_id).result()
                elif op == "suspend":
                    (session_id,) = args
                    reply = engine.suspend_session(session_id)
                elif op == "churn":
                    session_id, change = args
                    engine.churn_session(session_id, change)
                    reply = change.problem.num_users
                elif op == "split":
                    session_id, split, recommender = args
                    session = engine.split_session(session_id, split,
                                                   recommender)
                    reply = session.session_id
                elif op == "adopt":
                    snapshot, pending = args
                    session = engine.adopt_session(snapshot, pending)
                    reply = session.session_id
                elif op == "shutdown":
                    channel.send(("ok", (PERF.export_state(),
                                         list(events.records))))
                    break
                else:
                    raise ValueError(f"unknown fleet op {op!r}")
            except Exception as exc:  # ship it back, keep the shard up
                try:
                    channel.send(("error", exc))
                except ChannelClosed:
                    break
                except Exception:    # unpicklable exception: summarise
                    channel.send(("error",
                                  RuntimeError(f"{type(exc).__name__}: "
                                               f"{exc}")))
                continue
            try:
                channel.send(("ok", reply))
            except ChannelClosed:
                break
    channel.close()
