"""Hierarchical span tracing for the serving and training paths.

A :class:`Tracer` records **spans** — named, nested wall-clock intervals
with optional attributes (episode id, target, epoch, ...).  Nesting is
tracked per thread through a thread-local depth counter, and every span
remembers the process and thread that produced it, so traces from
multi-threaded callers stay on separate tracks.

Tracing is **disabled by default** and near-free when disabled: the
fast path is one attribute check returning a shared no-op context
manager, with no allocation.  Enable it around a region of interest::

    from repro.obs import TRACER

    TRACER.enable()
    ...workload...
    TRACER.export_chrome_trace("trace.json")   # open in ui.perfetto.dev
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

__all__ = ["SpanRecord", "Tracer", "TRACER"]


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


@dataclass
class SpanRecord:
    """One finished span: a named interval on a (process, thread) track.

    Timestamps are microseconds relative to the tracer's epoch (the
    moment :meth:`Tracer.enable` was called), matching the ``ts``/``dur``
    convention of the Chrome ``trace_event`` format.
    """

    name: str
    ts_us: float                 # start, µs since the tracer epoch
    dur_us: float                # duration in µs
    pid: int
    tid: int
    depth: int                   # nesting depth within its thread (0 = root)
    attrs: dict | None = field(default=None)


class _SpanScope:
    """Context manager recording one span into its tracer."""

    __slots__ = ("_tracer", "_name", "_attrs", "_depth", "_start")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict | None):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self):
        local = self._tracer._local
        self._depth = getattr(local, "depth", 0)
        local.depth = self._depth + 1
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = time.perf_counter()
        tracer = self._tracer
        tracer._local.depth = self._depth
        tracer._record(SpanRecord(
            name=self._name,
            ts_us=(self._start - tracer.epoch) * 1e6,
            dur_us=(end - self._start) * 1e6,
            pid=os.getpid(),
            tid=threading.get_ident(),
            depth=self._depth,
            attrs=self._attrs,
        ))
        return False


class Tracer:
    """Collects hierarchical :class:`SpanRecord` lists per process.

    One process-wide instance (:data:`TRACER`) is shared by the
    evaluation engine, the trainer and the bench drivers; tests build
    private instances.
    """

    def __init__(self, enabled: bool = False, max_spans: int = 1_000_000,
                 retain_spans: bool = True):
        self.enabled = enabled
        self.max_spans = max_spans
        #: With ``retain_spans=False`` finished spans are only handed to
        #: :attr:`listeners` (e.g. a flight recorder's bounded ring) and
        #: never accumulated in :attr:`spans` — always-on tracing with
        #: constant memory.
        self.retain_spans = retain_spans
        #: Callables invoked with every finished :class:`SpanRecord`
        #: before retention/drop accounting.
        self.listeners: list = []
        self.spans: list[SpanRecord] = []
        self.dropped = 0
        self.epoch = time.perf_counter()
        self._local = threading.local()

    # ------------------------------------------------------------------
    def enable(self) -> "Tracer":
        """Turn span collection on (returns self for chaining).

        The epoch is (re)anchored only when there are no recorded spans
        yet, so re-enabling around a second region keeps one timeline.
        """
        if not self.spans:
            self.epoch = time.perf_counter()
        self.enabled = True
        return self

    def disable(self) -> "Tracer":
        """Turn span collection off; recorded spans are kept."""
        self.enabled = False
        return self

    def reset(self) -> "Tracer":
        """Drop recorded spans and re-anchor the epoch."""
        self.spans.clear()
        self.dropped = 0
        self.epoch = time.perf_counter()
        return self

    # ------------------------------------------------------------------
    def span(self, name: str, attrs: dict | None = None):
        """Context manager recording the ``with`` block as one span.

        ``attrs`` become Perfetto ``args`` — keep them JSON-friendly
        scalars.  Near-free when disabled (shared no-op, no allocation).
        """
        if not self.enabled:
            return _NULL_SPAN
        return _SpanScope(self, name, attrs)

    def _record(self, span: SpanRecord) -> None:
        for listener in self.listeners:
            listener(span)
        if not self.retain_spans:
            return
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        self.spans.append(span)

    # ------------------------------------------------------------------
    def export_chrome_trace(self, path) -> str:
        """Write recorded spans as Chrome/Perfetto trace JSON."""
        from .perfetto import write_chrome_trace
        return write_chrome_trace(path, self.spans)


#: Process-wide default tracer, disabled until a caller enables it.
TRACER = Tracer(enabled=False)
