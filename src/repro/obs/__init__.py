"""``repro.obs`` — end-to-end tracing, metrics and run events.

The observability subsystem behind every hot path in the repo (see
docs/OBSERVABILITY.md):

* :data:`PERF` / :class:`Instrumentation` — flat wall-clock timers,
  event counters and fixed-boundary :class:`Histogram` metrics with
  p50/p90/p99 estimates, mergeable across processes
  (:meth:`Instrumentation.merge_snapshot`).
* :data:`TRACER` / :class:`Tracer` — hierarchical, thread- and
  process-aware spans exportable to Chrome/Perfetto ``trace_event`` JSON
  (:func:`write_chrome_trace`) and text call trees
  (:func:`span_tree_report`).
* :data:`EVENTS` / :class:`EventLog` — schema-versioned JSONL run
  events (guard rollbacks, checkpoint saves, cache misses) summarised
  by :class:`~repro.training.RunManifest`.
* :func:`compare_benchmarks` / :class:`GateReport` — the
  bench-regression gate behind ``python -m repro.obs gate``.
* :class:`TelemetrySampler` / :class:`ShardTelemetry` — per-shard
  time series pulled from a serving fleet once per driver tick
  (``python -m repro.obs top``).
* :class:`SloRule` / :class:`SloMonitor` — declarative windowed SLO
  thresholds with breach/recover events (``python -m repro.obs slo``).
* :class:`FlightRecorder` — always-on bounded span/event rings dumping
  Perfetto + JSONL incident bundles on SLO breach or shard failure.

Everything is disabled by default and near-free when disabled, so the
instrumentation stays permanently wired into the evaluation engine, the
POSHGNN trainer, the geometry cache layers and the bench drivers.
"""

from .events import EVENT_SCHEMA_VERSION, EVENTS, EventLog, read_events
from .gate import (
    DEFAULT_MIN_TIME,
    DEFAULT_THRESHOLD,
    GateReport,
    TimerComparison,
    compare_benchmarks,
    load_bench_timings,
)
from .instrumentation import (
    DEFAULT_COUNT_BOUNDARIES,
    DEFAULT_LATENCY_BOUNDARIES,
    DEFAULT_VALUE_BOUNDARIES,
    PERF,
    Histogram,
    Instrumentation,
    TimerStat,
    format_report,
)
from .live import (
    SERIES_CAPACITY,
    TELEMETRY_SCHEMA_VERSION,
    ShardTelemetry,
    TelemetrySampler,
    TimeSeries,
    load_telemetry,
    render_top,
)
from .perfetto import (
    load_chrome_trace,
    span_tree_report,
    to_chrome_trace,
    write_chrome_trace,
)
from .recorder import (
    INCIDENT_SCHEMA_VERSION,
    RING_EVENTS,
    RING_SPANS,
    FlightRecorder,
    default_incident_root,
    load_incident,
)
from .slo import (
    SloBatchReport,
    SloMonitor,
    SloRule,
    SloStatus,
    evaluate_recorded,
    load_rules,
)
from .trace import TRACER, SpanRecord, Tracer

__all__ = [
    "PERF",
    "Instrumentation",
    "TimerStat",
    "Histogram",
    "format_report",
    "DEFAULT_LATENCY_BOUNDARIES",
    "DEFAULT_VALUE_BOUNDARIES",
    "DEFAULT_COUNT_BOUNDARIES",
    "TRACER",
    "Tracer",
    "SpanRecord",
    "to_chrome_trace",
    "write_chrome_trace",
    "load_chrome_trace",
    "span_tree_report",
    "EVENTS",
    "EventLog",
    "read_events",
    "EVENT_SCHEMA_VERSION",
    "GateReport",
    "TimerComparison",
    "compare_benchmarks",
    "load_bench_timings",
    "DEFAULT_THRESHOLD",
    "DEFAULT_MIN_TIME",
    "TimeSeries",
    "ShardTelemetry",
    "TelemetrySampler",
    "load_telemetry",
    "render_top",
    "TELEMETRY_SCHEMA_VERSION",
    "SERIES_CAPACITY",
    "SloRule",
    "SloStatus",
    "SloMonitor",
    "SloBatchReport",
    "load_rules",
    "evaluate_recorded",
    "FlightRecorder",
    "load_incident",
    "default_incident_root",
    "INCIDENT_SCHEMA_VERSION",
    "RING_SPANS",
    "RING_EVENTS",
]
