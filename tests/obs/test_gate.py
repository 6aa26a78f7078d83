"""Bench-regression gate: comparison logic and the CLI exit codes."""

import json

import pytest

from repro.obs import (
    GateReport,
    TimerComparison,
    compare_benchmarks,
    load_bench_timings,
)
from repro.obs.__main__ import main

BASELINE = {"timings_s": {"batched": 0.10, "reference": 0.50,
                          "tiny": 1e-5}}


def _write(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


class TestComparisonLogic:
    def test_identical_runs_pass(self):
        report = compare_benchmarks(BASELINE, BASELINE)
        assert report.ok
        assert not report.regressions
        assert "PASS" in report.render()

    def test_injected_slowdown_fails(self):
        current = {"timings_s": {"batched": 0.15, "reference": 0.50,
                                 "tiny": 1e-5}}
        report = compare_benchmarks(BASELINE, current, threshold=0.25)
        assert not report.ok
        assert [c.name for c in report.regressions] == ["batched"]
        rendered = report.render()
        assert "REGRESSED" in rendered and "FAIL" in rendered

    def test_threshold_is_a_strict_bound(self):
        current = {"timings_s": {"batched": 0.125, "reference": 0.50}}
        assert compare_benchmarks(BASELINE, current, threshold=0.25).ok
        assert not compare_benchmarks(BASELINE, current, threshold=0.24).ok

    def test_speedups_pass(self):
        current = {"timings_s": {"batched": 0.01, "reference": 0.02}}
        assert compare_benchmarks(BASELINE, current).ok

    def test_min_time_skips_noise_timers(self):
        current = {"timings_s": {"batched": 0.10, "reference": 0.50,
                                 "tiny": 1.0}}  # 1e5x "regression" on noise
        report = compare_benchmarks(BASELINE, current)
        assert report.ok
        assert report.skipped == ["tiny"]

    def test_selected_timers_compared_even_below_min_time(self):
        current = {"timings_s": {"batched": 0.10, "tiny": 1.0}}
        report = compare_benchmarks(BASELINE, current, timers=["tiny"])
        assert not report.ok

    def test_unknown_selected_timer_raises(self):
        with pytest.raises(ValueError, match="not present"):
            compare_benchmarks(BASELINE, BASELINE, timers=["nope"])

    def test_missing_and_added_timers_do_not_fail(self):
        current = {"timings_s": {"batched": 0.10, "brand_new": 9.0}}
        report = compare_benchmarks(BASELINE, current)
        assert report.ok
        assert report.missing == ["reference", "tiny"]
        assert report.added == ["brand_new"]

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            compare_benchmarks(BASELINE, BASELINE, threshold=-0.1)

    def test_zero_baseline_ratio(self):
        assert TimerComparison("x", 0.0, 0.0).ratio == 1.0
        assert TimerComparison("x", 0.0, 0.1).ratio == float("inf")

    def test_empty_report_passes(self):
        assert GateReport(threshold=0.25).ok


class TestLoadBenchTimings:
    def test_timings_s_section(self):
        assert load_bench_timings(BASELINE)["batched"] == 0.10

    def test_no_timings_rejected(self):
        """Only the ``timings_s`` section is read: a ``PERF.report()``
        document, a bare ``instrumentation`` section or a flat mapping
        is not a bench record."""
        for document in ({"notes": "hello"},
                         {"timers": {"eval.episode": {"total_s": 1.25}}},
                         {"instrumentation": {
                             "timers": {"eval.episode": {"total_s": 2.0}}}},
                         {"a": 1, "b": 2.5}):
            with pytest.raises(ValueError, match="no timings"):
                load_bench_timings(document)
        with pytest.raises(ValueError):
            load_bench_timings([1, 2, 3])

    def test_reads_from_path(self, tmp_path):
        path = _write(tmp_path, "bench.json", BASELINE)
        assert load_bench_timings(path)["reference"] == 0.50

    def test_non_finite_timings_are_dropped(self):
        """NaN/inf entries must not poison gate ratios."""
        document = {"timings_s": {"batched": 0.10,
                                  "broken": float("nan"),
                                  "hung": float("inf")}}
        assert load_bench_timings(document) == {"batched": 0.10}
        # a section that is *all* non-finite reads as absent, not fatal
        assert load_bench_timings({"timings_s": {"x": float("nan")}}) == {}


class TestCli:
    def test_gate_identical_exits_zero(self, tmp_path, capsys):
        path = _write(tmp_path, "b.json", BASELINE)
        assert main(["gate", "--baseline", path, "--current", path]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_gate_regression_exits_nonzero(self, tmp_path, capsys):
        baseline = _write(tmp_path, "b.json", BASELINE)
        current = _write(tmp_path, "c.json", {
            "timings_s": {"batched": 0.15, "reference": 0.50}})
        assert main(["gate", "--baseline", baseline,
                     "--current", current]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_gate_report_only_always_exits_zero(self, tmp_path, capsys):
        baseline = _write(tmp_path, "b.json", BASELINE)
        current = _write(tmp_path, "c.json", {
            "timings_s": {"batched": 0.90, "reference": 0.50}})
        assert main(["gate", "--baseline", baseline, "--current", current,
                     "--report-only"]) == 0
        assert "FAIL" in capsys.readouterr().out

    def test_gate_timers_flag(self, tmp_path, capsys):
        baseline = _write(tmp_path, "b.json", BASELINE)
        current = _write(tmp_path, "c.json", {
            "timings_s": {"batched": 0.90, "reference": 0.50}})
        assert main(["gate", "--baseline", baseline, "--current", current,
                     "--timers", "reference"]) == 0
        capsys.readouterr()

    def test_trace_subcommand(self, tmp_path, capsys):
        from repro.obs import Tracer, write_chrome_trace

        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        path = str(tmp_path / "trace.json")
        write_chrome_trace(path, tracer.spans)
        assert main(["trace", path]) == 0
        out = capsys.readouterr().out
        assert "outer" in out and "inner" in out

    def test_metrics_subcommand(self, tmp_path, capsys):
        document = {"timers": {"eval.episode": {"count": 2, "total_s": 0.5,
                                                "mean_ms": 250.0}},
                    "counters": {"eval.steps": 14},
                    "histograms": {"eval.recommend_s": {
                        "count": 3, "p50": 0.01, "p90": 0.02, "p99": 0.03}}}
        path = _write(tmp_path, "metrics.json", document)
        assert main(["metrics", path]) == 0
        out = capsys.readouterr().out
        assert "eval.episode" in out and "eval.steps" in out
        assert "eval.recommend_s" in out

    def test_metrics_empty_document_exits_nonzero(self, tmp_path, capsys):
        path = _write(tmp_path, "m.json", {"irrelevant": {}})
        assert main(["metrics", path]) == 1
        capsys.readouterr()
