"""Declarative SLO rules evaluated against live shard telemetry.

An :class:`SloRule` is a windowed threshold over one telemetry metric,
written the way an on-call engineer would say it::

    p99(serving.step_latency_s) < 25ms over 5s
    mean(serving.shed_rate) < 0.01 over 10s
    max(serving.queue_depth) < 512 over 5s

:class:`SloMonitor` evaluates a rule set against a
:class:`~repro.obs.TelemetrySampler` (or a loaded telemetry document)
and tracks per-``(rule, shard)`` breach state: it emits a
schema-versioned ``slo.breach`` event on the *transition* into breach
and ``slo.recover`` on the way back — not once per evaluation — and can
trigger a :class:`~repro.obs.FlightRecorder` dump at the breach moment
so the spans and events that led up to it are preserved.

A window with no data (sampler not yet run, idle interval, unknown
metric, empty histogram — all surfaced as NaN by the series layer)
evaluates to ``no_data``: it neither breaches nor recovers, because an
absent signal is not evidence in either direction.

:func:`evaluate_recorded` replays a recorded series through a fresh
monitor timestamp by timestamp — the backend of ``python -m repro.obs
slo``.
"""

from __future__ import annotations

import json
import math
import operator
import os
import re
from dataclasses import dataclass, field

from .events import EventLog
from .live import ShardTelemetry, TelemetrySampler

__all__ = ["SloRule", "SloStatus", "SloMonitor", "SloBatchReport",
           "load_rules", "evaluate_recorded"]

_OPS = {"<": operator.lt, "<=": operator.le,
        ">": operator.gt, ">=": operator.ge}

_UNIT_SCALE = {None: 1.0, "": 1.0, "s": 1.0, "ms": 1e-3, "%": 1e-2}

_RULE_RE = re.compile(
    r"^\s*(?P<aggregate>p\d{1,2}|mean|max|min|last|sum|count)\s*"
    r"\(\s*(?P<metric>[\w./:-]+)\s*\)\s*"
    r"(?P<op>[<>]=?)\s*"
    r"(?P<threshold>[-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)\s*"
    r"(?P<unit>ms|s|%)?"
    r"(?:\s+over\s+(?P<window>[0-9]*\.?[0-9]+)\s*s)?\s*$")


@dataclass(frozen=True)
class SloRule:
    """One windowed threshold: ``aggregate(metric) op threshold``.

    ``aggregate`` is any aggregate the series layer understands
    (``p50``...``p99``, ``mean``, ``max``, ``min``, ``last``, ``sum``,
    ``count``); ``op`` one of ``<``, ``<=``, ``>``, ``>=``; thresholds
    are in the metric's native unit (seconds for latency histograms).
    ``window_s`` is the trailing evaluation window.
    """

    metric: str
    aggregate: str
    op: str
    threshold: float
    window_s: float = 5.0
    name: str = ""

    def __post_init__(self):
        """Validate the operator/aggregate and default the rule name."""
        if self.op not in _OPS:
            raise ValueError(f"unknown comparison {self.op!r}")
        if not (self.aggregate in ("mean", "max", "min", "last", "sum",
                                   "count")
                or (self.aggregate.startswith("p")
                    and self.aggregate[1:].isdigit())):
            raise ValueError(f"unknown aggregate {self.aggregate!r}")
        if not self.name:
            object.__setattr__(self, "name",
                               f"{self.aggregate}({self.metric})")

    @classmethod
    def parse(cls, spec: str, *, name: str = "") -> "SloRule":
        """Parse ``"p99(serving.step_latency_s) < 25ms over 5s"``.

        The unit suffix (``ms``, ``s``, ``%``) scales the threshold to
        the metric's native unit; ``over <N>s`` sets the window and
        defaults to 5 s when omitted.
        """
        match = _RULE_RE.match(spec)
        if match is None:
            raise ValueError(f"unparseable SLO rule {spec!r}")
        window = match.group("window")
        return cls(metric=match.group("metric"),
                   aggregate=match.group("aggregate"),
                   op=match.group("op"),
                   threshold=float(match.group("threshold"))
                   * _UNIT_SCALE[match.group("unit")],
                   window_s=float(window) if window is not None else 5.0,
                   name=name)

    @classmethod
    def from_spec(cls, spec) -> "SloRule":
        """Build a rule from a string, a ``{"rule": ...}``-style dict
        (keys ``metric``/``aggregate``/``op``/``threshold`` plus
        optional ``window_s``/``name``, or ``spec`` holding the string
        form), or pass an :class:`SloRule` through unchanged."""
        if isinstance(spec, SloRule):
            return spec
        if isinstance(spec, str):
            return cls.parse(spec)
        if isinstance(spec, dict):
            if "spec" in spec:
                return cls.parse(spec["spec"], name=spec.get("name", ""))
            return cls(metric=spec["metric"], aggregate=spec["aggregate"],
                       op=spec.get("op", "<"),
                       threshold=float(spec["threshold"]),
                       window_s=float(spec.get("window_s", 5.0)),
                       name=spec.get("name", ""))
        raise TypeError(f"cannot build SloRule from {type(spec).__name__}")

    def check(self, value: float) -> bool:
        """Whether ``value`` satisfies the rule (NaN never satisfies)."""
        if math.isnan(value):
            return False
        return _OPS[self.op](value, self.threshold)

    def describe(self) -> str:
        """The canonical string form of the rule."""
        return (f"{self.aggregate}({self.metric}) {self.op} "
                f"{self.threshold:g} over {self.window_s:g}s")


@dataclass(frozen=True)
class SloStatus:
    """One evaluation outcome for a ``(rule, shard)`` pair.

    ``state`` is ``ok``, ``breach`` or ``no_data`` (empty window — the
    pair's previous breach/ok state is left untouched).
    """

    rule: SloRule
    shard: int
    value: float
    state: str

    def describe(self) -> str:
        """Human-readable one-liner for reports and CLI output."""
        value = "-" if math.isnan(self.value) else f"{self.value:g}"
        return (f"[{self.state:>7s}] shard {self.shard} "
                f"{self.rule.name}: {value} "
                f"(want {self.rule.op} {self.rule.threshold:g} "
                f"over {self.rule.window_s:g}s)")


class SloMonitor:
    """Evaluates :class:`SloRule` sets and tracks breach transitions.

    ``events`` receives the ``slo.breach``/``slo.recover`` records
    (defaults to a private in-memory :class:`~repro.obs.EventLog`);
    ``recorder`` — typically a :class:`~repro.obs.FlightRecorder` — gets
    a ``dump()`` at each transition *into* breach, capturing the recent
    span/event history as an incident bundle.
    """

    def __init__(self, rules, *, events: EventLog | None = None,
                 recorder=None):
        self.rules = [SloRule.from_spec(rule) for rule in rules]
        self.events = events if events is not None \
            else EventLog(path=None, enabled=True)
        self.recorder = recorder
        self._breached: set[tuple[str, int]] = set()

    @property
    def breached(self) -> list[tuple[str, int]]:
        """Currently-breaching ``(rule name, shard)`` pairs, sorted."""
        return sorted(self._breached)

    def evaluate(self, telemetry, now: float | None = None) -> list[SloStatus]:
        """Evaluate every rule against every shard's trailing window.

        ``telemetry`` is a :class:`~repro.obs.TelemetrySampler` or a
        ``{shard: ShardTelemetry}`` mapping; ``now`` anchors the window
        end (defaults to the newest sampled timestamp per shard).
        Returns all statuses and emits breach/recover transitions.
        """
        shards = telemetry.shards \
            if isinstance(telemetry, TelemetrySampler) else telemetry
        statuses: list[SloStatus] = []
        for shard in sorted(shards):
            shard_telemetry: ShardTelemetry = shards[shard]
            end = shard_telemetry.latest_timestamp() if now is None \
                else float(now)
            for rule in self.rules:
                if math.isnan(end):
                    value = float("nan")
                else:
                    value = shard_telemetry.aggregate(
                        rule.metric, rule.aggregate,
                        start=end - rule.window_s, end=end)
                key = (rule.name, shard)
                if math.isnan(value):
                    statuses.append(SloStatus(rule, shard, value,
                                              "no_data"))
                    continue
                ok = rule.check(value)
                if not ok and key not in self._breached:
                    self._breached.add(key)
                    self.events.emit("slo.breach", rule=rule.name,
                                     spec=rule.describe(), shard=shard,
                                     value=value,
                                     threshold=rule.threshold)
                    if self.recorder is not None:
                        self.recorder.dump(
                            f"slo-{rule.name}-shard{shard}",
                            extra={"rule": rule.name,
                                   "spec": rule.describe(),
                                   "shard": shard, "value": value})
                elif ok and key in self._breached:
                    self._breached.discard(key)
                    self.events.emit("slo.recover", rule=rule.name,
                                     spec=rule.describe(), shard=shard,
                                     value=value,
                                     threshold=rule.threshold)
                statuses.append(SloStatus(rule, shard, value,
                                          "breach" if not ok else "ok"))
        return statuses


@dataclass
class SloBatchReport:
    """Outcome of replaying a recorded series through a rule set.

    ``scenario`` names the workload scenario the replay was scoped to
    (empty for a whole-series evaluation).
    """

    statuses: list[SloStatus] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    timestamps: int = 0
    scenario: str = ""

    @property
    def breach_events(self) -> list[dict]:
        """The ``slo.breach`` transition events seen during replay."""
        return [record for record in self.events
                if record["type"] == "slo.breach"]

    @property
    def ok(self) -> bool:
        """True when no rule entered breach at any replayed timestamp."""
        return not self.breach_events

    def render(self) -> str:
        """Multi-line report: final statuses plus breach transitions."""
        lines = [f"scenario: {self.scenario}"] if self.scenario else []
        lines += [status.describe() for status in self.statuses]
        breaches = self.breach_events
        lines.append(f"{len(breaches)} breach transition(s) across "
                     f"{self.timestamps} timestamp(s)")
        for record in breaches:
            lines.append(f"  breach @t={record.get('at', 0.0):g}s "
                         f"shard {record['shard']} {record['rule']}: "
                         f"{record['value']:g}")
        return "\n".join(lines)


def load_rules(source) -> list[SloRule]:
    """Load rules from a JSON file path, a dict, or a list of specs.

    Accepted shapes: ``{"rules": [...]}`` or a bare list, where each
    entry is anything :meth:`SloRule.from_spec` accepts.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source) as handle:
            source = json.load(handle)
    if isinstance(source, dict):
        source = source.get("rules", [])
    return [SloRule.from_spec(spec) for spec in source]


def evaluate_recorded(rules, shards: dict[int, ShardTelemetry], *,
                      start: float | None = None,
                      end: float | None = None,
                      scenario: str = "") -> SloBatchReport:
    """Replay a recorded telemetry series through a fresh monitor.

    Evaluates at every distinct sample timestamp in order, so breach
    *transitions* fire exactly as they would have live.  ``start`` /
    ``end`` scope the replay to one scenario's span of a longer
    recording (timestamps outside the closed interval are skipped;
    ``scenario`` labels the resulting report).  The returned report
    carries the final statuses and all transition events.
    """
    rules = [SloRule.from_spec(rule) for rule in rules]
    events = EventLog(path=None, enabled=True)
    monitor = SloMonitor(rules, events=events)
    timestamps = set().union(*(telemetry.timestamps()
                               for telemetry in shards.values()))
    if start is not None:
        timestamps = {t for t in timestamps if t >= start}
    if end is not None:
        timestamps = {t for t in timestamps if t <= end}
    statuses: list[SloStatus] = []
    for now in sorted(timestamps):
        marker = len(events.records)
        statuses = monitor.evaluate(shards, now=now)
        for record in events.records[marker:]:
            record["at"] = now
    return SloBatchReport(statuses=statuses, events=list(events.records),
                          timestamps=len(timestamps), scenario=scenario)
