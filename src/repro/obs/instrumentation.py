"""Timers, counters and histogram metrics for the hot paths.

The evaluation engine, the POSHGNN trainer and the bench drivers all
report where their wall-clock goes through one shared
:class:`Instrumentation` registry::

    from repro.obs import PERF

    with PERF.scope("eval.recommend"):
        rendered = recommender.recommend(frame)
    PERF.count("eval.steps")
    PERF.observe("eval.recommend_s", elapsed)      # histogram metric

On top of the original flat timers/counters it adds

* **histograms** — fixed-boundary bucket counts with p50/p90/p99
  estimates (:class:`Histogram`, :meth:`Instrumentation.observe`);
* **cross-process merging** — :meth:`TimerStat.merge`,
  :meth:`Instrumentation.export_state` and
  :meth:`Instrumentation.merge_snapshot` fold a forked worker's
  statistics back into the parent with exact count/min/max semantics;
* **span bridging** — when the bound :class:`~repro.obs.trace.Tracer`
  is enabled, every :meth:`scope` also records a hierarchical span, so
  one call site feeds both the aggregate report and the Perfetto trace.

Instrumentation is **disabled by default** and near-free when disabled
(two attribute checks returning a shared no-op context manager, no
allocation), so it can stay wired into hot loops permanently.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass, field

from .trace import TRACER, Tracer

__all__ = ["TimerStat", "Histogram", "Instrumentation", "PERF",
           "format_report", "DEFAULT_LATENCY_BOUNDARIES", "DEFAULT_VALUE_BOUNDARIES",
           "DEFAULT_COUNT_BOUNDARIES"]

#: Latency bucket upper bounds in seconds: a 1-2-5 ladder from 10 µs to
#: 10 s, tight enough for per-step and per-episode quantiles.
DEFAULT_LATENCY_BOUNDARIES = tuple(
    base * 10.0 ** exponent
    for exponent in range(-5, 2)
    for base in (1.0, 2.0, 5.0)
)

#: Generic value buckets (utilities, gradient norms, graph sizes): a
#: 1-2-5 ladder from 1e-3 to 1e5.
DEFAULT_VALUE_BOUNDARIES = tuple(
    base * 10.0 ** exponent
    for exponent in range(-3, 6)
    for base in (1.0, 2.0, 5.0)
)

#: Small-integer buckets (queue depths, batch sizes, rooms in flight): a
#: 1-2-5 ladder from 1 to 1e4, so the serving engine's backpressure
#: distributions resolve single-digit depths exactly.
DEFAULT_COUNT_BOUNDARIES = tuple(
    base * 10.0 ** exponent
    for exponent in range(0, 5)
    for base in (1.0, 2.0, 5.0)
)


@dataclass
class TimerStat:
    """Accumulated wall-clock statistics for one named scope."""

    count: int = 0
    total: float = 0.0
    min: float = field(default=float("inf"))
    max: float = 0.0

    def add(self, seconds: float) -> None:
        """Fold one measured duration into the statistics."""
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    def merge(self, other: "TimerStat") -> "TimerStat":
        """Fold another stat in (exact count/total/min/max semantics)."""
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        return self

    @property
    def mean(self) -> float:
        """Mean seconds per call (0 when never hit)."""
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        """JSON-friendly summary of this timer."""
        return {
            "count": self.count,
            "total_s": self.total,
            "mean_ms": self.mean * 1000.0,
            "min_ms": (self.min if self.count else 0.0) * 1000.0,
            "max_ms": self.max * 1000.0,
        }

    def state(self) -> dict:
        """Lossless (mergeable) view, unlike the rounded :meth:`as_dict`."""
        return {"count": self.count, "total": self.total,
                "min": self.min, "max": self.max}

    @classmethod
    def from_state(cls, payload: dict) -> "TimerStat":
        """Inverse of :meth:`state`."""
        return cls(count=payload["count"], total=payload["total"],
                   min=payload["min"], max=payload["max"])


class Histogram:
    """Fixed-boundary bucket histogram with quantile estimates.

    ``boundaries`` are ascending bucket *upper* bounds; one overflow
    bucket catches everything above the last boundary.  Quantiles are
    estimated Prometheus-style — locate the bucket containing the target
    rank and interpolate linearly inside it — then clamped to the
    observed ``[min, max]`` so tails never extrapolate past real data.
    """

    __slots__ = ("boundaries", "bucket_counts", "count", "total",
                 "min", "max")

    def __init__(self, boundaries=DEFAULT_LATENCY_BOUNDARIES):
        boundaries = tuple(float(b) for b in boundaries)
        if not boundaries:
            raise ValueError("histogram needs at least one boundary")
        if any(b >= c for b, c in zip(boundaries, boundaries[1:])):
            raise ValueError("boundaries must be strictly ascending")
        self.boundaries = boundaries
        self.bucket_counts = [0] * (len(boundaries) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Fold one observation into the bucket counts."""
        value = float(value)
        self.bucket_counts[bisect_right(self.boundaries, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Mean observed value (NaN when empty, like :meth:`quantile`)."""
        return self.total / self.count if self.count else float("nan")

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``q`` in [0, 1]); NaN when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must lie in [0, 1]")
        if not self.count:
            return float("nan")
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            if not bucket_count:
                continue
            if cumulative + bucket_count >= rank:
                if index == 0:
                    low = self.min
                    high = self.boundaries[0]
                elif index == len(self.boundaries):
                    low = self.boundaries[-1]
                    high = self.max
                else:
                    low = self.boundaries[index - 1]
                    high = self.boundaries[index]
                inside = max(0.0, rank - cumulative)
                estimate = low + (high - low) * inside / bucket_count
                return min(self.max, max(self.min, estimate))
            cumulative += bucket_count
        return self.max

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold another histogram in; boundaries must match exactly."""
        if other.boundaries != self.boundaries:
            raise ValueError("cannot merge histograms with different "
                             "boundaries")
        for index, bucket_count in enumerate(other.bucket_counts):
            self.bucket_counts[index] += bucket_count
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        return self

    def as_dict(self) -> dict:
        """JSON-friendly summary with p50/p90/p99 estimates."""
        empty = not self.count
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": float("nan") if empty else self.min,
            "max": float("nan") if empty else self.max,
            "p50": float("nan") if empty else self.quantile(0.50),
            "p90": float("nan") if empty else self.quantile(0.90),
            "p99": float("nan") if empty else self.quantile(0.99),
        }

    def state(self) -> dict:
        """Lossless (mergeable) view including raw bucket counts."""
        return {"boundaries": list(self.boundaries),
                "bucket_counts": list(self.bucket_counts),
                "count": self.count, "total": self.total,
                "min": self.min, "max": self.max}

    @classmethod
    def from_state(cls, payload: dict) -> "Histogram":
        """Inverse of :meth:`state`."""
        histogram = cls(tuple(payload["boundaries"]))
        histogram.bucket_counts = list(payload["bucket_counts"])
        histogram.count = payload["count"]
        histogram.total = payload["total"]
        histogram.min = payload["min"]
        histogram.max = payload["max"]
        return histogram


class _NullScope:
    """Shared no-op context manager returned while disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SCOPE = _NullScope()


class _Scope:
    """Context manager adding its elapsed time to a timer (and span)."""

    __slots__ = ("_stat", "_span", "_start")

    def __init__(self, stat: TimerStat, span=None):
        self._stat = stat
        self._span = span

    def __enter__(self):
        if self._span is not None:
            self._span.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._stat.add(time.perf_counter() - self._start)
        if self._span is not None:
            self._span.__exit__(exc_type, exc, tb)
        return False


class Instrumentation:
    """A named registry of timers, counters and histograms.

    ``tracer`` optionally binds a :class:`~repro.obs.trace.Tracer`:
    while that tracer is enabled, :meth:`scope` records a span alongside
    the timer, so the same call sites feed both the flat report and the
    hierarchical trace.
    """

    def __init__(self, enabled: bool = False, tracer: Tracer | None = None):
        self.enabled = enabled
        self.tracer = tracer
        self.timers: dict[str, TimerStat] = {}
        self.counters: dict[str, int] = {}
        self.histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def enable(self) -> "Instrumentation":
        """Turn collection on (returns self for chaining)."""
        self.enabled = True
        return self

    def disable(self) -> "Instrumentation":
        """Turn collection off; recorded statistics are kept."""
        self.enabled = False
        return self

    def reset(self) -> "Instrumentation":
        """Drop all recorded statistics."""
        self.timers.clear()
        self.counters.clear()
        self.histograms.clear()
        return self

    # ------------------------------------------------------------------
    def scope(self, name: str, attrs: dict | None = None):
        """Context manager timing the ``with`` block under ``name``.

        ``attrs`` are attached to the traced span only (the flat timer
        aggregates over them); pass them for coarse scopes (episodes,
        epochs), not per-step hot loops.
        """
        tracer = self.tracer
        if not self.enabled:
            if tracer is not None and tracer.enabled:
                return tracer.span(name, attrs)
            return _NULL_SCOPE
        stat = self.timers.get(name)
        if stat is None:
            stat = self.timers[name] = TimerStat()
        if tracer is not None and tracer.enabled:
            return _Scope(stat, tracer.span(name, attrs))
        return _Scope(stat)

    def add_time(self, name: str, seconds: float) -> None:
        """Record an externally measured duration under ``name``."""
        if not self.enabled:
            return
        stat = self.timers.get(name)
        if stat is None:
            stat = self.timers[name] = TimerStat()
        stat.add(seconds)

    def count(self, name: str, increment: int = 1) -> None:
        """Bump the counter ``name`` by ``increment``."""
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + increment

    def observe(self, name: str, value: float, boundaries=None) -> None:
        """Fold ``value`` into the histogram ``name``.

        ``boundaries`` picks the bucket ladder on first use (default:
        :data:`DEFAULT_LATENCY_BOUNDARIES`); later calls reuse the
        existing histogram regardless.
        """
        if not self.enabled:
            return
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(
                boundaries if boundaries is not None
                else DEFAULT_LATENCY_BOUNDARIES)
        histogram.observe(value)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Freeze current totals for a later :meth:`delta_since`."""
        return {
            "timers": {name: (stat.count, stat.total)
                       for name, stat in self.timers.items()},
            "counters": dict(self.counters),
        }

    def delta_since(self, snapshot: dict) -> dict:
        """Timers/counters accumulated since ``snapshot`` was taken.

        Lets a run (a training job, a bench driver) report only its own
        share of the process-wide registry in its manifest.
        """
        timers = {}
        for name, stat in self.timers.items():
            count0, total0 = snapshot.get("timers", {}).get(name, (0, 0.0))
            count = stat.count - count0
            total = stat.total - total0
            if count > 0:
                timers[name] = {
                    "count": count,
                    "total_s": total,
                    "mean_ms": total / count * 1000.0,
                }
        counters = {}
        for name, value in self.counters.items():
            delta = value - snapshot.get("counters", {}).get(name, 0)
            if delta:
                counters[name] = delta
        return {"timers": dict(sorted(timers.items())),
                "counters": dict(sorted(counters.items()))}

    # ------------------------------------------------------------------
    # Cross-process merging (the serving fleet's shard workers)
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Lossless, picklable state for :meth:`merge_snapshot`."""
        return {
            "timers": {name: stat.state()
                       for name, stat in self.timers.items()},
            "counters": dict(self.counters),
            "histograms": {name: histogram.state()
                           for name, histogram in self.histograms.items()},
        }

    def merge_snapshot(self, state: dict,
                       prefix: str = "") -> "Instrumentation":
        """Fold an :meth:`export_state` payload into this registry.

        Merging is exact — counts and totals add, mins/maxes fold — and
        deterministic when applied in a fixed order (the fleet folds
        shards in index order).  Applies regardless of
        :attr:`enabled`, since the caller explicitly asked for it.

        ``prefix`` namespaces every merged timer/counter/histogram name
        (e.g. ``"shard1/"``): the serving fleet merges each worker's
        state once unprefixed for exact aggregate totals and once
        shard-tagged so per-shard skew stays visible in one registry.
        """
        for name, payload in state.get("timers", {}).items():
            name = prefix + name
            stat = self.timers.get(name)
            if stat is None:
                self.timers[name] = TimerStat.from_state(payload)
            else:
                stat.merge(TimerStat.from_state(payload))
        for name, value in state.get("counters", {}).items():
            name = prefix + name
            self.counters[name] = self.counters.get(name, 0) + value
        for name, payload in state.get("histograms", {}).items():
            name = prefix + name
            histogram = self.histograms.get(name)
            if histogram is None:
                self.histograms[name] = Histogram.from_state(payload)
            else:
                histogram.merge(Histogram.from_state(payload))
        return self

    # ------------------------------------------------------------------
    def report(self) -> dict:
        """All timers, counters and histograms as a JSON-able dict."""
        report = {
            "timers": {name: stat.as_dict()
                       for name, stat in sorted(self.timers.items())},
            "counters": dict(sorted(self.counters.items())),
        }
        if self.histograms:
            report["histograms"] = {
                name: histogram.as_dict()
                for name, histogram in sorted(self.histograms.items())}
        return report

    def summary(self) -> str:
        """Human-readable one-line-per-entry summary of :meth:`report`."""
        return format_report(self.report())


def format_report(report: dict) -> str:
    """Text rendering of a :meth:`Instrumentation.report` document.

    One line per timer (calls, total and mean milliseconds), per counter
    and per non-empty histogram (p50/p90/p99); the renderer behind both
    :meth:`Instrumentation.summary` and ``python -m repro.obs metrics``.
    """
    lines = []
    for name, stat in sorted(report.get("timers", {}).items()):
        lines.append(f"{name:36s} {stat['count']:8d} calls "
                     f"{stat['total_s'] * 1000.0:12.2f} ms total "
                     f"{stat['mean_ms']:10.4f} ms/call")
    for name, value in sorted(report.get("counters", {}).items()):
        lines.append(f"{name:36s} {value:8d}")
    for name, stat in sorted(report.get("histograms", {}).items()):
        if stat["count"]:
            lines.append(f"{name:36s} {stat['count']:8d} obs      "
                         f"p50={stat['p50']:.4g} p90={stat['p90']:.4g} "
                         f"p99={stat['p99']:.4g}")
    return "\n".join(lines)


#: Process-wide default registry, disabled until a caller enables it.
#: Bound to the default tracer so enabled tracing turns every timed
#: scope into a span.
PERF = Instrumentation(enabled=False, tracer=TRACER)
