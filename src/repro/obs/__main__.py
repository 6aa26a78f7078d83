"""Command-line observability tools.

Render text reports from trace/metric files and gate benchmark runs
against a committed baseline::

    python -m repro.obs gate --baseline BENCH_eval_engine.json \\
        --current /tmp/new.json [--threshold 0.25] [--report-only]
    python -m repro.obs trace trace.json
    python -m repro.obs metrics BENCH_eval_engine.json
    python -m repro.obs top runs/telemetry_serving.json
    python -m repro.obs slo --rules benchmarks/slo_rules.json \\
        runs/telemetry_serving.json [--report-only]

``gate`` exits nonzero when any compared timer slowed down by more than
the threshold (``--report-only`` always exits zero, for informational
CI jobs).  ``trace`` prints the aggregated span call tree of a Perfetto
trace; ``metrics`` prints the timers/counters/histograms of a
``PERF.report()`` document or of a bench record's ``instrumentation``
section.  ``top`` renders the per-shard table of a telemetry document
saved by :class:`~repro.obs.TelemetrySampler`; ``slo`` replays a
recorded series through a rules file and exits nonzero if any rule
breached at any timestamp.
"""

from __future__ import annotations

import argparse
import json
import sys

from .gate import DEFAULT_MIN_TIME, DEFAULT_THRESHOLD, compare_benchmarks
from .instrumentation import format_report
from .live import load_telemetry, render_top
from .perfetto import load_chrome_trace, span_tree_report
from .slo import evaluate_recorded, load_rules


def _cmd_gate(args) -> int:
    timers = [name.strip() for name in args.timers.split(",")
              if name.strip()] if args.timers else None
    report = compare_benchmarks(args.baseline, args.current,
                                threshold=args.threshold, timers=timers,
                                min_time=args.min_time)
    print(report.render())
    if args.report_only:
        return 0
    return 0 if report.ok else 1


def _cmd_trace(args) -> int:
    spans = load_chrome_trace(args.trace)
    print(span_tree_report(spans))
    return 0


def _cmd_metrics(args) -> int:
    with open(args.metrics) as handle:
        document = json.load(handle)
    text = format_report(document.get("instrumentation", document))
    if not text:
        print("no metrics found", file=sys.stderr)
        return 1
    print(text)
    return 0


def _cmd_top(args) -> int:
    try:
        shards = load_telemetry(args.series)
    except FileNotFoundError:
        print(f"no telemetry document at {args.series}", file=sys.stderr)
        return 1
    print(render_top(shards, window_s=args.window))
    return 0


def _cmd_slo(args) -> int:
    rules = load_rules(args.rules)
    shards = load_telemetry(args.series)
    report = evaluate_recorded(rules, shards)
    print(report.render())
    if args.report_only:
        return 0
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.obs`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="trace/metric reports and the bench-regression gate")
    commands = parser.add_subparsers(dest="command", required=True)

    gate = commands.add_parser(
        "gate", help="compare a benchmark run against a baseline")
    gate.add_argument("--baseline", required=True,
                      help="committed baseline JSON (e.g. "
                           "BENCH_eval_engine.json)")
    gate.add_argument("--current", required=True,
                      help="freshly produced benchmark JSON")
    gate.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                      help="tolerated fractional slowdown "
                           "(default %(default)s = +25%%)")
    gate.add_argument("--timers", default=None,
                      help="comma-separated timer names to compare "
                           "(default: all)")
    gate.add_argument("--min-time", type=float, default=DEFAULT_MIN_TIME,
                      help="skip baseline timers below this many seconds "
                           "(default %(default)s)")
    gate.add_argument("--report-only", action="store_true",
                      help="print the comparison but always exit zero")
    gate.set_defaults(run=_cmd_gate)

    trace = commands.add_parser(
        "trace", help="aggregated span tree of a Perfetto trace file")
    trace.add_argument("trace", help="trace_event JSON written by the "
                                     "tracer")
    trace.set_defaults(run=_cmd_trace)

    metrics = commands.add_parser(
        "metrics", help="timers/counters/histograms of a metrics file")
    metrics.add_argument("metrics", help="PERF.report() JSON or a bench "
                                         "record")
    metrics.set_defaults(run=_cmd_metrics)

    top = commands.add_parser(
        "top", help="per-shard table of a telemetry document")
    top.add_argument("series", help="telemetry JSON written by "
                                    "TelemetrySampler.save")
    top.add_argument("--window", type=float, default=5.0,
                     help="trailing window in seconds for the rate and "
                          "latency columns (default %(default)s)")
    top.set_defaults(run=_cmd_top)

    slo = commands.add_parser(
        "slo", help="replay SLO rules over a recorded telemetry series")
    slo.add_argument("series", help="telemetry JSON written by "
                                    "TelemetrySampler.save")
    slo.add_argument("--rules", required=True,
                     help="JSON rules file ({\"rules\": [...]}; entries "
                          "are spec strings or rule dicts)")
    slo.add_argument("--report-only", action="store_true",
                     help="print the evaluation but always exit zero")
    slo.set_defaults(run=_cmd_slo)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    raise SystemExit(main())
