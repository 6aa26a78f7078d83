"""Live fleet telemetry: bounded time series sampled from serving shards.

End-of-run folding (:meth:`~repro.obs.Instrumentation.merge_snapshot`,
:meth:`~repro.obs.EventLog.adopt`) answers "where did the wall-clock
go"; rebalancing, autoscaling and SLO monitoring instead need the
*trajectory* of each shard's load while the fleet is serving.  This
module provides that substrate:

* :class:`TimeSeries` — a bounded ring of ``(t, value)`` points whose
  value is either a float gauge or a per-interval :class:`Histogram`
  delta, with windowed aggregates (``mean``/``max``/``min``/``last``/
  ``sum``/``count``/``p50``...``p99``) that return NaN on an empty
  window instead of inventing data;
* :class:`ShardTelemetry` — one shard's named series;
* :class:`TelemetrySampler` — pulls per-shard samples from a
  :class:`~repro.serving.Fleet` (every worker engine's own
  ``telemetry_sample``, relabelled with its shard) or a
  local :class:`~repro.serving.SessionEngine` once per driver tick,
  turns cumulative :meth:`~repro.obs.Instrumentation.export_state`
  counters into interval rates (shed/degrade fractions, steps/s) and
  histogram deltas (step latency, batch size), and appends them to the
  rings.

Sampling is **pull-based and read-only**: ``telemetry_sample`` never
resets a worker's registry, so the fleet's end-of-run fold at
:meth:`~repro.serving.Fleet.close` still sees every step (a counter
that goes backwards is nonetheless treated as a fresh baseline).
Series serialise to a schema-versioned JSON document
(:meth:`TelemetrySampler.save`, :func:`load_telemetry`) that ``python
-m repro.obs top``/``slo`` and the SLO monitor consume.
"""

from __future__ import annotations

import json
import math
import os
from collections import deque

import numpy as np

from .instrumentation import Histogram

__all__ = ["TimeSeries", "ShardTelemetry", "TelemetrySampler",
           "load_telemetry", "render_top", "TELEMETRY_SCHEMA_VERSION",
           "TRACKED_HISTOGRAMS", "SERIES_CAPACITY"]

#: Version stamped into saved telemetry documents; bump on layout breaks.
TELEMETRY_SCHEMA_VERSION = 1

#: Points each series retains; appending past it evicts the oldest, so
#: a sampler can run for a whole serving run at constant memory.
SERIES_CAPACITY = 512

#: Cumulative PERF histograms turned into per-interval delta series.
TRACKED_HISTOGRAMS = ("serving.step_latency_s", "serving.batch_size")


class TimeSeries:
    """Bounded ring of ``(t, value)`` points, oldest evicted first.

    A value is a float gauge observation or the :class:`Histogram` of
    observations made *during one sampling interval*.  Windowed
    aggregates over histogram points merge the interval deltas back
    together, so ``p99`` over the last 5 s is exact over whatever the
    shard observed in those 5 s.  Timestamps must be fed monotonically.
    """

    __slots__ = ("points",)

    def __init__(self):
        self.points: deque[tuple] = deque(maxlen=SERIES_CAPACITY)

    def append(self, t: float, value) -> None:
        """Record ``value`` (a float or a Histogram) at timestamp ``t``."""
        if not isinstance(value, Histogram):
            value = float(value)
        self.points.append((float(t), value))

    def __len__(self) -> int:
        """Number of retained points."""
        return len(self.points)

    @property
    def last(self) -> tuple | None:
        """The most recent ``(t, value)`` point (``None`` while empty)."""
        return self.points[-1] if self.points else None

    def window(self, start: float | None = None,
               end: float | None = None) -> list[tuple]:
        """Points with ``start <= t <= end`` (``None`` bounds are open).

        The ``end`` bound is what makes replaying a *recorded* series
        faithful: evaluating "as of" timestamp T must not see points
        sampled after T.
        """
        return [(t, value) for t, value in self.points
                if (start is None or t >= start)
                and (end is None or t <= end)]

    def aggregate(self, op: str, start: float | None = None,
                  end: float | None = None) -> float:
        """Windowed aggregate; NaN when the window holds no points.

        ``op`` is ``mean``/``max``/``min``/``last``/``sum``/``count`` or
        a percentile such as ``p99``.  Gauge percentiles interpolate
        linearly over the window's raw values and ``count`` is the
        number of points; over histogram points every aggregate reads
        the merged histogram (``sum`` is the total of observations,
        ``count`` their number) and ``last`` is NaN.
        """
        values = [value for _, value in self.window(start, end)]
        if not values:
            return float("nan")
        percentile = int(op[1:]) if op.startswith("p") \
            and op[1:].isdigit() else None
        if isinstance(values[0], Histogram):
            merged = Histogram(values[0].boundaries)
            for delta in values:
                merged.merge(delta)
            if not merged.count:
                return float("nan")
            if percentile is not None:
                return merged.quantile(percentile / 100.0)
            reducers = {"mean": lambda: merged.mean,
                        "max": lambda: merged.max,
                        "min": lambda: merged.min,
                        "sum": lambda: merged.total,
                        "count": lambda: float(merged.count),
                        "last": lambda: float("nan")}
        else:
            if percentile is not None:
                return float(np.percentile(values, percentile))
            reducers = {"mean": lambda: float(np.mean(values)),
                        "max": lambda: float(max(values)),
                        "min": lambda: float(min(values)),
                        "sum": lambda: float(np.sum(values)),
                        "count": lambda: float(len(values)),
                        "last": lambda: values[-1]}
        if op not in reducers:
            raise ValueError(f"unknown aggregate {op!r}")
        return reducers[op]()

    def state(self) -> dict:
        """JSON-able lossless view (inverse of :meth:`from_state`)."""
        return {"capacity": SERIES_CAPACITY,
                "points": [[t, value.state()
                            if isinstance(value, Histogram) else value]
                           for t, value in self.points]}

    @classmethod
    def from_state(cls, payload: dict) -> "TimeSeries":
        """Rebuild a series saved by :meth:`state`."""
        series = cls()
        for t, value in payload["points"]:
            series.append(t, Histogram.from_state(value)
                          if isinstance(value, dict) else value)
        return series


class ShardTelemetry:
    """One shard's named series, gauges and histograms kept apart."""

    def __init__(self, shard: int):
        self.shard = shard
        self.gauges: dict[str, TimeSeries] = {}
        self.histograms: dict[str, TimeSeries] = {}

    def append(self, name: str, t: float, value) -> None:
        """Append to series ``name`` (created on first use)."""
        family = self.histograms if isinstance(value, Histogram) \
            else self.gauges
        if name not in family:
            family[name] = TimeSeries()
        family[name].append(t, value)

    def aggregate(self, metric: str, op: str, start: float | None = None,
                  end: float | None = None) -> float:
        """Windowed aggregate of ``metric``; NaN when unknown or empty.

        An unknown metric is *no data*, never an error — a rule against
        a not-yet-sampled metric simply reports ``no_data``.
        """
        series = self.histograms.get(metric, self.gauges.get(metric))
        if series is None:
            return float("nan")
        return series.aggregate(op, start, end)

    def timestamps(self) -> set[float]:
        """Every timestamp held by any series."""
        return {t for family in (self.gauges, self.histograms)
                for series in family.values() for t, _ in series.points}

    def latest_timestamp(self) -> float:
        """The newest timestamp across all series (NaN while empty)."""
        stamps = [series.last[0]
                  for family in (self.gauges, self.histograms)
                  for series in family.values() if series.points]
        return max(stamps) if stamps else float("nan")

    def state(self) -> dict:
        """JSON-able lossless view (inverse of :meth:`from_state`)."""
        return {"shard": self.shard, "capacity": SERIES_CAPACITY,
                "gauges": {name: series.state()
                           for name, series in sorted(self.gauges.items())},
                "histograms": {name: series.state()
                               for name, series
                               in sorted(self.histograms.items())}}

    @classmethod
    def from_state(cls, payload: dict) -> "ShardTelemetry":
        """Rebuild shard telemetry saved by :meth:`state`."""
        telemetry = cls(payload["shard"])
        for family in ("gauges", "histograms"):
            for name, state in payload.get(family, {}).items():
                getattr(telemetry, family)[name] = \
                    TimeSeries.from_state(state)
        return telemetry


def _counter(state: dict, name: str) -> int:
    """A counter's cumulative value in an ``export_state`` payload."""
    return int(state.get("counters", {}).get(name, 0))


def _counter_delta(current: dict, previous: dict | None, name: str) -> int:
    """Interval delta of a cumulative counter, reset-aware.

    A counter that went *backwards* means the source's registry was
    reset between samples (``PERF.reset()``); the current value then
    becomes the whole interval's delta.
    """
    value = _counter(current, name)
    if previous is None:
        return value
    delta = value - _counter(previous, name)
    return value if delta < 0 else delta


def _histogram_delta(current: dict, previous: dict | None,
                     name: str) -> Histogram | None:
    """Interval delta of a cumulative histogram, reset-aware.

    Returns ``None`` when the interval saw no observations.  The delta
    keeps the cumulative min/max (exact interval extremes are not
    recoverable from bucket counts); quantile clamping therefore uses a
    slightly-too-wide range, which can only make tails *less* extreme.
    """
    state = current.get("histograms", {}).get(name)
    if state is None:
        return None
    current_hist = Histogram.from_state(state)
    previous_state = None if previous is None \
        else previous.get("histograms", {}).get(name)
    if previous_state is not None \
            and tuple(previous_state["boundaries"]) \
            == current_hist.boundaries:
        deltas = [now - before for now, before
                  in zip(state["bucket_counts"],
                         previous_state["bucket_counts"])]
        if all(delta >= 0 for delta in deltas):   # no reset in between
            current_hist.bucket_counts = deltas
            current_hist.count -= previous_state["count"]
            current_hist.total -= previous_state["total"]
    if not current_hist.count:
        return None
    return current_hist


class TelemetrySampler:
    """Pull-based sampler maintaining per-shard telemetry rings.

    ``source`` is anything with a ``telemetry_sample()`` method
    returning per-shard sample dicts — a :class:`~repro.serving.Fleet`
    (which gathers every worker engine's own ``telemetry_sample``) or a
    local :class:`~repro.serving.SessionEngine` (which reports itself
    as shard 0).  The driver calls :meth:`sample` once per tick, on the
    thread that drives the stack; each call appends:

    * gauges ``serving.queue_depth`` and ``serving.open_sessions``
      (direct reads);
    * gauges ``serving.shed_rate`` / ``serving.degrade_rate`` (fraction
      of the steps *consumed this interval*) and
      ``serving.throughput_steps_per_s`` — only when the interval
      actually consumed steps, so idle intervals are no-data, not zero;
    * histogram deltas for :data:`TRACKED_HISTOGRAMS` (step latency,
      batch size) — only when the interval observed anything.

    Rate/latency series need the source's :data:`~repro.obs.PERF`
    registry enabled (workers inherit the flag across the fleet fork);
    with it disabled the sampler still maintains the direct gauges.
    """

    def __init__(self, source):
        self.source = source
        self.shards: dict[int, ShardTelemetry] = {}
        self.samples = 0
        self._previous: dict[int, dict] = {}
        self._previous_t: dict[int, float] = {}

    def sample(self, now: float) -> list[dict]:
        """Pull one sample from every shard at timestamp ``now``.

        Returns the raw per-shard samples.
        """
        now = float(now)
        raw = self.source.telemetry_sample()
        for entry in raw:
            shard = int(entry["shard"])
            telemetry = self.shards.get(shard)
            if telemetry is None:
                telemetry = self.shards[shard] = ShardTelemetry(shard)
            telemetry.append("serving.queue_depth", now,
                             entry["queue_depth"])
            telemetry.append("serving.open_sessions", now,
                             entry["open_sessions"])
            perf = entry.get("perf") or {}
            previous = self._previous.get(shard)
            degraded = _counter_delta(perf, previous,
                                      "serving.steps_degraded")
            steps = _counter_delta(perf, previous,
                                   "serving.steps") + degraded
            shed = _counter_delta(perf, previous, "serving.steps_shed")
            consumed = steps + shed
            if consumed:
                telemetry.append("serving.shed_rate", now, shed / consumed)
                telemetry.append("serving.degrade_rate", now,
                                 degraded / consumed)
                elapsed = now - self._previous_t.get(shard, now)
                if elapsed > 0.0:
                    telemetry.append("serving.throughput_steps_per_s",
                                     now, steps / elapsed)
            for name in TRACKED_HISTOGRAMS:
                delta = _histogram_delta(perf, previous, name)
                if delta is not None:
                    telemetry.append(name, now, delta)
            self._previous[shard] = perf
            self._previous_t[shard] = now
        self.samples += 1
        return raw

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_document(self) -> dict:
        """The full telemetry state as a schema-versioned JSON document."""
        return {"schema": TELEMETRY_SCHEMA_VERSION,
                "kind": "repro.telemetry",
                "samples": self.samples,
                "shards": {str(shard): telemetry.state()
                           for shard, telemetry
                           in sorted(self.shards.items())}}

    def save(self, path) -> str:
        """Write :meth:`to_document` JSON to ``path``; returns the path."""
        path = os.fspath(path)
        with open(path, "w") as handle:
            json.dump(self.to_document(), handle)
            handle.write("\n")
        return path


def load_telemetry(source) -> dict[int, ShardTelemetry]:
    """Per-shard telemetry from a saved document (path or parsed dict).

    Rejects documents from a newer schema rather than misreading them.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source) as handle:
            document = json.load(handle)
    else:
        document = source
    version = document.get("schema", 0)
    if version > TELEMETRY_SCHEMA_VERSION:
        raise ValueError(f"telemetry document has schema {version}; this "
                         f"build reads up to {TELEMETRY_SCHEMA_VERSION}")
    return {int(shard): ShardTelemetry.from_state(state)
            for shard, state in document.get("shards", {}).items()}


def _format_cell(value: float, scale: float = 1.0,
                 digits: int = 1) -> str:
    """A fixed-width table cell; ``-`` for NaN (no data)."""
    if value is None or math.isnan(value):
        return "-"
    return f"{value * scale:.{digits}f}"


def render_top(shards: dict[int, ShardTelemetry],
               window_s: float = 5.0) -> str:
    """The per-shard live table behind ``python -m repro.obs top``.

    One row per shard: open sessions and queue depth (latest), interval
    shed/degrade percentages, mean batch size and step-latency p50/p99
    over the trailing ``window_s`` seconds.  Metrics the sampler has no
    data for render as ``-``.
    """
    if not shards:
        return "(no telemetry)"
    header = (f"{'shard':>5s} {'sessions':>9s} {'queue':>6s} "
              f"{'steps/s':>8s} {'shed%':>6s} {'degr%':>6s} "
              f"{'batch':>6s} {'p50 ms':>8s} {'p99 ms':>8s}")
    lines = [header]
    for shard in sorted(shards):
        telemetry = shards[shard]
        now = telemetry.latest_timestamp()
        start = None if math.isnan(now) else now - window_s
        lines.append(
            f"{shard:5d} "
            f"{_format_cell(telemetry.aggregate('serving.open_sessions', 'last', start), digits=0):>9s} "
            f"{_format_cell(telemetry.aggregate('serving.queue_depth', 'last', start), digits=0):>6s} "
            f"{_format_cell(telemetry.aggregate('serving.throughput_steps_per_s', 'mean', start)):>8s} "
            f"{_format_cell(telemetry.aggregate('serving.shed_rate', 'mean', start), 100.0):>6s} "
            f"{_format_cell(telemetry.aggregate('serving.degrade_rate', 'mean', start), 100.0):>6s} "
            f"{_format_cell(telemetry.aggregate('serving.batch_size', 'mean', start)):>6s} "
            f"{_format_cell(telemetry.aggregate('serving.step_latency_s', 'p50', start), 1000.0, 2):>8s} "
            f"{_format_cell(telemetry.aggregate('serving.step_latency_s', 'p99', start), 1000.0, 2):>8s}")
    return "\n".join(lines)
