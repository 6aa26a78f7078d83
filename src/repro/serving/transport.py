"""Length-prefixed pipe transport between the fleet router and shards.

One shard worker is one forked process running a plain request/response
loop over a pair of OS pipes.  The wire format is deliberately simple —
an 8-byte little-endian length header followed by a pickled payload —
so a message is exactly one framed blob, there is no interleaving to
reason about, and a broken pipe surfaces as :class:`ChannelClosed`
instead of a half-read.

Messages are ``(op, args, kwargs)`` tuples whose ``op`` names a
:class:`~repro.serving.SessionEngine` method from :data:`ENGINE_OPS`
(or ``shutdown``); replies are ``("ok", value)`` or
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
from .session import RoomSession, SessionStep

__all__ = ["ChannelClosed", "PipeChannel", "channel_pair", "shard_main",
           "ENGINE_OPS"]

#: The :class:`SessionEngine` methods a shard serves by name.
ENGINE_OPS = frozenset({
    "open_session", "submit", "pump", "drain", "telemetry_sample",
    "close_session", "suspend_session", "adopt_session", "churn_session",
    "merge_sessions", "split_session"})

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
def _reply(engine: SessionEngine, value):
    """What an engine call's return value ships back as.

    A session still registered in the engine comes back as its id, a
    session that left it (closed, merged away) as its final
    :meth:`~repro.serving.RoomSession.result`, and completed
    :class:`~repro.serving.session.SessionStep` records as
    ``(t, shed, degraded, latency_s)`` tuples — the full records, with
    their render masks, stay on the worker with their session.
    """
    if isinstance(value, RoomSession):
        return value.session_id if value.session_id in engine \
            else value.result()
    if isinstance(value, list) and value \
            and isinstance(value[0], SessionStep):
        return [(record.t, bool(record.shed), bool(record.degraded),
                 float(record.latency_s)) for record in value]
    return value


def shard_main(channel: PipeChannel, shard: int,
               engine_kwargs: dict) -> None:
    """Run one shard: a :class:`SessionEngine` behind a command loop.

    Forked from the router, so the worker inherits the PERF registry's
    enabled flag; statistics are reset on entry so the state shipped back at
    shutdown covers exactly this shard's work, ready for the router's
    shard-tagged :meth:`~repro.obs.Instrumentation.merge_snapshot`.

    Every op in :data:`ENGINE_OPS` calls the engine method of that name
    and ships its value back through :func:`_reply`.  Worker state
    leaves the shard two ways only: the read-only ``telemetry_sample``
    op while serving, and the ``shutdown`` reply (the final obs state)
    at the end.  The loop also exits when the router vanishes
    (``ChannelClosed``).
    """
    from ..obs import EventLog

    PERF.reset()
    events = EventLog(enabled=True)
    # Session ids are unique fleet-wide and records are re-tagged with
    # the shard on adoption, so the worker log needs no shard field.
    with SessionEngine(events=events, **engine_kwargs) as engine:
        while True:
            try:
                op, args, kwargs = channel.recv()
            except ChannelClosed:
                break
            if op == "shutdown":
                try:
                    channel.send(("ok", (PERF.export_state(),
                                         list(events.records))))
                except ChannelClosed:
                    pass
                break
            try:
                if op not in ENGINE_OPS:
                    raise ValueError(f"unknown fleet op {op!r}")
                reply = _reply(engine, getattr(engine, op)(*args, **kwargs))
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
