"""Bench-regression gate: compare benchmark timing files.

Perf work is only trustworthy when slowdowns fail loudly.  The gate
compares a fresh benchmark record (e.g. ``BENCH_eval_engine.json``)
against a committed baseline, timer by timer, and fails on any named
timer that regressed more than a threshold::

    python -m repro.obs gate --baseline BENCH_eval_engine.json \
        --current /tmp/new.json --threshold 0.25

Both files are bench records: the ``timings_s`` section (``{name:
seconds}``) that every perf harness writes is what gets compared.

Timers below ``min_time`` seconds in the baseline are skipped (pure
noise), and timers present on only one side are reported but do not
fail the gate — renames should not mask real regressions elsewhere.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

__all__ = ["TimerComparison", "GateReport", "load_bench_timings",
           "compare_benchmarks", "DEFAULT_THRESHOLD", "DEFAULT_MIN_TIME"]

#: Fractional slowdown tolerated before the gate fails (0.25 = +25%).
DEFAULT_THRESHOLD = 0.25

#: Baseline timers shorter than this many seconds are skipped as noise.
DEFAULT_MIN_TIME = 1e-3


@dataclass(frozen=True)
class TimerComparison:
    """One timer's baseline-vs-current comparison."""

    name: str
    baseline_s: float
    current_s: float

    @property
    def ratio(self) -> float:
        """current / baseline (inf when the baseline is zero)."""
        if self.baseline_s <= 0.0:
            return float("inf") if self.current_s > 0.0 else 1.0
        return self.current_s / self.baseline_s

    def regressed(self, threshold: float) -> bool:
        """Whether current exceeds baseline by more than ``threshold``."""
        return self.ratio > 1.0 + threshold


@dataclass
class GateReport:
    """Outcome of one gate run (all comparisons + verdict)."""

    threshold: float
    comparisons: list = field(default_factory=list)
    skipped: list = field(default_factory=list)       # below min_time
    missing: list = field(default_factory=list)       # baseline-only
    added: list = field(default_factory=list)         # current-only

    @property
    def regressions(self) -> list:
        """Comparisons that exceeded the threshold."""
        return [c for c in self.comparisons if c.regressed(self.threshold)]

    @property
    def ok(self) -> bool:
        """True when no compared timer regressed past the threshold."""
        return not self.regressions

    def render(self) -> str:
        """Multi-line text report (one line per compared timer)."""
        lines = [f"{'timer':36s} {'baseline':>12s} {'current':>12s} "
                 f"{'ratio':>8s}"]
        for comparison in self.comparisons:
            flag = "  REGRESSED" \
                if comparison.regressed(self.threshold) else ""
            lines.append(
                f"{comparison.name:36s} "
                f"{comparison.baseline_s * 1000.0:10.1f}ms "
                f"{comparison.current_s * 1000.0:10.1f}ms "
                f"{comparison.ratio:8.2f}{flag}")
        for name in self.skipped:
            lines.append(f"{name:36s} (skipped: baseline below min-time)")
        for name in self.missing:
            lines.append(f"{name:36s} (missing from current)")
        for name in self.added:
            lines.append(f"{name:36s} (new in current)")
        verdict = "PASS" if self.ok else \
            f"FAIL: {len(self.regressions)} timer(s) regressed more " \
            f"than {self.threshold:.0%}"
        lines.append(verdict)
        return "\n".join(lines)


def load_bench_timings(source) -> dict:
    """The ``timings_s`` section of a bench record, as floats.

    ``source`` may be a path or an already-parsed document.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source) as handle:
            document = json.load(handle)
    else:
        document = source
    if not isinstance(document, dict):
        raise ValueError("benchmark document must be a JSON object")
    if "timings_s" not in document:
        raise ValueError("no timings found: a bench record carries a "
                         "'timings_s' section")
    return _finite_timings(document["timings_s"])


def _finite_timings(timings: dict) -> dict:
    """Coerce to float, dropping NaN/inf entries.

    Empty-histogram summaries serialise NaN aggregates (see
    :meth:`~repro.obs.Histogram.as_dict`); a NaN on either side of a
    ratio would poison the verdict, so non-finite timings are treated
    as absent rather than comparable.
    """
    return {name: float(value) for name, value in timings.items()
            if math.isfinite(float(value))}


def compare_benchmarks(baseline, current,
                       threshold: float = DEFAULT_THRESHOLD,
                       timers=None,
                       min_time: float = DEFAULT_MIN_TIME) -> GateReport:
    """Compare two benchmark documents; returns a :class:`GateReport`.

    ``timers`` optionally restricts the comparison to named timers;
    names listed there are compared even below ``min_time``.
    """
    if threshold < 0.0:
        raise ValueError("threshold must be non-negative")
    baseline_timings = load_bench_timings(baseline)
    current_timings = load_bench_timings(current)
    selected = set(timers) if timers is not None else None

    report = GateReport(threshold=threshold)
    for name in sorted(baseline_timings):
        if selected is not None and name not in selected:
            continue
        if name not in current_timings:
            report.missing.append(name)
            continue
        if selected is None and baseline_timings[name] < min_time:
            report.skipped.append(name)
            continue
        report.comparisons.append(TimerComparison(
            name=name, baseline_s=baseline_timings[name],
            current_s=current_timings[name]))
    for name in sorted(set(current_timings) - set(baseline_timings)):
        if selected is None or name in selected:
            report.added.append(name)
    if selected is not None:
        unknown = selected - set(baseline_timings) - set(current_timings)
        if unknown:
            raise ValueError(f"timers not present in either file: "
                             f"{sorted(unknown)}")
    return report
