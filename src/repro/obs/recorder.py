"""Always-on flight recorder: bounded span/event rings, dump on incident.

A post-mortem needs the trace *leading up to* a failure, but keeping
full tracing on forever is unbounded memory.  :class:`FlightRecorder`
solves this the way avionics do: it subscribes to a
:class:`~repro.obs.Tracer` and an :class:`~repro.obs.EventLog` through
their listener hooks and keeps only the most recent N spans and events
in fixed-size rings.  When something goes wrong — an SLO breach (see
:class:`~repro.obs.SloMonitor`), a :class:`~repro.serving.ShardFailure`,
or any caller-decided incident — :meth:`FlightRecorder.dump` writes an
**incident bundle**: a directory with a Perfetto-loadable ``trace.json``
of the ring's spans, an ``events.jsonl`` of the ring's events, and a
``manifest.json`` naming the reason.  :func:`load_incident` reads a
bundle back for assertions and tooling.

:meth:`FlightRecorder.attach` switches the tracer on in
``retain_spans=False`` mode, where finished spans go *only* to
listeners: tracing stays on for the whole serving run at constant
memory, and :meth:`FlightRecorder.detach` restores the tracer exactly
as it found it.

Bundles default under ``$REPRO_RUN_DIR/incidents`` (falling back to
``./runs/incidents``), one fresh subdirectory per dump.
"""

from __future__ import annotations

import json
import math
import os
import re
import time
from collections import deque
from pathlib import Path

from .perfetto import load_chrome_trace, write_chrome_trace

__all__ = ["FlightRecorder", "load_incident", "default_incident_root",
           "INCIDENT_SCHEMA_VERSION", "RING_SPANS", "RING_EVENTS"]

#: Version stamped into bundle manifests; bump on layout breaks.
INCIDENT_SCHEMA_VERSION = 1

#: Most recent spans / events a recorder keeps (oldest evicted first).
RING_SPANS = 4096
RING_EVENTS = 1024


def default_incident_root() -> Path:
    """Where bundles land by default: ``$REPRO_RUN_DIR/incidents``
    when the run-directory convention is active, else
    ``./runs/incidents``."""
    run_dir = os.environ.get("REPRO_RUN_DIR")
    base = Path(run_dir) if run_dir else Path("runs")
    return base / "incidents"


def _slug(reason: str) -> str:
    """A filesystem-safe directory stem for an incident reason."""
    slug = re.sub(r"[^A-Za-z0-9._-]+", "-", reason).strip("-")
    return slug or "incident"


class FlightRecorder:
    """Bounded rings of recent spans/events with dump-on-incident.

    :data:`RING_SPANS`/:data:`RING_EVENTS` bound memory; the rings keep
    the *newest* records (oldest are evicted).  ``directory`` overrides
    :func:`default_incident_root` as the bundle parent.  Use it either
    by calling :meth:`record_span`/:meth:`record_event` directly, or —
    the normal path — via :meth:`attach`.
    """

    def __init__(self, *, directory=None):
        self.spans = deque(maxlen=RING_SPANS)
        self.events = deque(maxlen=RING_EVENTS)
        self.directory = None if directory is None else Path(directory)
        #: Paths of the bundles written so far, in dump order.
        self.dumps: list[Path] = []
        self._attached: list[tuple] = []

    # ------------------------------------------------------------------
    # Ring feeds (listener targets)
    # ------------------------------------------------------------------
    def record_span(self, span) -> None:
        """Ring-buffer one finished :class:`~repro.obs.SpanRecord`."""
        self.spans.append(span)

    def record_event(self, record: dict) -> None:
        """Ring-buffer one event record (a JSON-able dict)."""
        self.events.append(record)

    # ------------------------------------------------------------------
    # Attach / detach
    # ------------------------------------------------------------------
    def attach(self, *, tracer=None, events=None) -> "FlightRecorder":
        """Subscribe to a tracer and/or event log; returns self.

        The tracer is switched on so the ring actually fills, and stops
        accumulating its own span list while attached — always-on
        recording at constant memory.  :meth:`detach` restores every
        touched flag to its pre-attach value.
        """
        if tracer is not None:
            self._attached.append(("tracer", tracer, tracer.enabled,
                                   tracer.retain_spans))
            tracer.listeners.append(self.record_span)
            tracer.retain_spans = False
            tracer.enable()
        if events is not None:
            self._attached.append(("events", events, events.enabled, None))
            events.listeners.append(self.record_event)
        return self

    def detach(self) -> None:
        """Unsubscribe from everything and restore prior flags."""
        while self._attached:
            kind, target, enabled, retain = self._attached.pop()
            if kind == "tracer":
                if self.record_span in target.listeners:
                    target.listeners.remove(self.record_span)
                target.enabled = enabled
                target.retain_spans = retain
            else:
                if self.record_event in target.listeners:
                    target.listeners.remove(self.record_event)

    def __enter__(self) -> "FlightRecorder":
        """Context-manager entry; returns self."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: detaches from tracer/event log."""
        self.detach()

    # ------------------------------------------------------------------
    # Dumping
    # ------------------------------------------------------------------
    def dump(self, reason: str, *, directory=None,
             extra: dict | None = None) -> Path:
        """Write the rings as an incident bundle; returns its path.

        The bundle is ``<parent>/<slug(reason)>-<seq>/`` holding
        ``manifest.json`` (reason, wall-clock time, counts, ``extra``),
        ``trace.json`` (Perfetto) and ``events.jsonl``.  The rings are
        left intact, so consecutive incidents each get the full recent
        history.
        """
        parent = Path(directory) if directory is not None \
            else (self.directory if self.directory is not None
                  else default_incident_root())
        bundle = parent / f"{_slug(reason)}-{len(self.dumps):03d}"
        bundle.mkdir(parents=True, exist_ok=True)
        spans = list(self.spans)
        events = list(self.events)
        write_chrome_trace(bundle / "trace.json", spans)
        with open(bundle / "events.jsonl", "w") as handle:
            for record in events:
                json.dump(record, handle, separators=(",", ":"),
                          default=_json_fallback)
                handle.write("\n")
        manifest = {"schema": INCIDENT_SCHEMA_VERSION,
                    "kind": "repro.incident",
                    "reason": reason,
                    "t": time.time(),
                    "spans": len(spans),
                    "events": len(events),
                    "extra": extra or {}}
        with open(bundle / "manifest.json", "w") as handle:
            json.dump(manifest, handle, indent=1, default=_json_fallback)
            handle.write("\n")
        self.dumps.append(bundle)
        return bundle


def _json_fallback(value):
    """Last-resort JSON encoding for event payloads (repr strings)."""
    if isinstance(value, float) and math.isnan(value):
        return None
    return repr(value)


def load_incident(directory) -> dict:
    """Read an incident bundle back: manifest, spans and events.

    The trace round-trips through
    :func:`~repro.obs.load_chrome_trace`, so ``spans`` are
    :class:`~repro.obs.SpanRecord` objects; ``events`` are the raw
    JSONL records.  Rejects bundles from a newer schema.
    """
    directory = Path(directory)
    with open(directory / "manifest.json") as handle:
        manifest = json.load(handle)
    version = manifest.get("schema", 0)
    if version > INCIDENT_SCHEMA_VERSION:
        raise ValueError(f"incident bundle {directory} has schema "
                         f"{version}; this build reads up to "
                         f"{INCIDENT_SCHEMA_VERSION}")
    events = []
    with open(directory / "events.jsonl") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return {"manifest": manifest,
            "spans": load_chrome_trace(directory / "trace.json"),
            "events": events}
