"""SLO rules: parsing, breach/recover transitions, recorded replay."""

import json
import math

import pytest

from repro.obs import (
    EventLog,
    Histogram,
    ShardTelemetry,
    SloMonitor,
    SloRule,
    evaluate_recorded,
    load_rules,
)


def _shard(shard=0):
    return ShardTelemetry(shard=shard)


def _observe(telemetry, t, name="serving.shed_rate", value=0.0):
    telemetry.append(name, t, value)


class TestRuleParsing:
    def test_full_spec(self):
        rule = SloRule.parse("p99(serving.step_latency_s) < 25ms over 5s")
        assert rule.metric == "serving.step_latency_s"
        assert rule.aggregate == "p99"
        assert rule.op == "<"
        assert rule.threshold == pytest.approx(0.025)
        assert rule.window_s == 5.0
        assert rule.name == "p99(serving.step_latency_s)"

    def test_unit_scaling(self):
        assert SloRule.parse("mean(x) < 5%").threshold \
            == pytest.approx(0.05)
        assert SloRule.parse("mean(x) < 2s").threshold == 2.0
        assert SloRule.parse("mean(x) < 3").threshold == 3.0

    def test_window_defaults_to_five_seconds(self):
        assert SloRule.parse("max(x) < 10").window_s == 5.0
        assert SloRule.parse("max(x) < 10 over 60s").window_s == 60.0

    def test_all_comparison_operators(self):
        for op in ("<", "<=", ">", ">="):
            assert SloRule.parse(f"mean(x) {op} 1").op == op

    def test_explicit_name_wins(self):
        assert SloRule.parse("mean(x) < 1", name="steady").name == "steady"

    def test_unparseable_specs_rejected(self):
        for bad in ("mean(x)", "p999(x) < 1", "mean(x) ~ 1",
                    "mean(x) < 1 over 5m"):
            with pytest.raises(ValueError):
                SloRule.parse(bad)

    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError, match="comparison"):
            SloRule(metric="x", aggregate="mean", op="~", threshold=1.0)
        with pytest.raises(ValueError, match="aggregate"):
            SloRule(metric="x", aggregate="median", op="<", threshold=1.0)

    def test_from_spec_forms(self):
        rule = SloRule.parse("mean(x) < 1")
        assert SloRule.from_spec(rule) is rule
        assert SloRule.from_spec("mean(x) < 1") == rule
        named = SloRule.from_spec({"spec": "mean(x) < 1", "name": "n"})
        assert named.name == "n"
        explicit = SloRule.from_spec({"metric": "x", "aggregate": "max",
                                      "threshold": 2, "window_s": 9})
        assert explicit.op == "<" and explicit.window_s == 9.0
        with pytest.raises(TypeError):
            SloRule.from_spec(42)

    def test_check_nan_never_satisfies(self):
        rule = SloRule.parse("mean(x) < 1")
        assert rule.check(0.5)
        assert not rule.check(2.0)
        assert not rule.check(float("nan"))

    def test_describe_round_trips(self):
        rule = SloRule.parse("p99(serving.step_latency_s) < 25ms over 5s")
        assert SloRule.parse(rule.describe(), name=rule.name) == rule


class TestMonitorTransitions:
    def _monitor(self, spec="mean(serving.shed_rate) < 0.5 over 10s"):
        events = EventLog()
        return SloMonitor([spec], events=events), events

    def test_breach_emitted_once_per_transition(self):
        monitor, events = self._monitor()
        telemetry = _shard()
        _observe(telemetry, 1.0, value=0.9)
        statuses = monitor.evaluate({0: telemetry})
        assert statuses[0].state == "breach"
        assert monitor.breached == [("mean(serving.shed_rate)", 0)]
        # still breaching: no second event
        _observe(telemetry, 2.0, value=0.9)
        monitor.evaluate({0: telemetry})
        assert [r["type"] for r in events.records] == ["slo.breach"]
        breach = events.records[0]
        assert breach["shard"] == 0
        assert breach["value"] == pytest.approx(0.9)

    def test_recover_emitted_on_exit(self):
        monitor, events = self._monitor("last(serving.shed_rate) < 0.5")
        telemetry = _shard()
        _observe(telemetry, 1.0, value=0.9)
        monitor.evaluate({0: telemetry})
        _observe(telemetry, 10.0, value=0.0)
        statuses = monitor.evaluate({0: telemetry})
        assert statuses[0].state == "ok"
        assert monitor.breached == []
        assert [r["type"] for r in events.records] \
            == ["slo.breach", "slo.recover"]

    def test_no_data_leaves_state_untouched(self):
        monitor, events = self._monitor("last(serving.shed_rate) < 0.5")
        telemetry = _shard()
        _observe(telemetry, 1.0, value=0.9)
        monitor.evaluate({0: telemetry})
        # evaluate far in the future: empty window -> no_data, and the
        # pair stays breached (absent signal is not recovery evidence)
        statuses = monitor.evaluate({0: telemetry}, now=100.0)
        assert statuses[0].state == "no_data"
        assert math.isnan(statuses[0].value)
        assert monitor.breached == [("last(serving.shed_rate)", 0)]
        assert [r["type"] for r in events.records] == ["slo.breach"]
        assert "-" in statuses[0].describe()

    def test_count_rule_on_a_gauge_counts_window_points(self):
        """``count`` on a gauge is the number of points in the window,
        not an ``unknown aggregate`` crash of the monitor."""
        monitor, _ = self._monitor("count(serving.queue_depth) < 5 over 5s")
        telemetry = _shard()
        for t in range(8):
            _observe(telemetry, float(t), "serving.queue_depth", 1.0)
        statuses = monitor.evaluate({0: telemetry})
        assert statuses[0].value == 6.0      # points at t = 2..7
        assert statuses[0].state == "breach"
        assert monitor.evaluate({0: telemetry}, now=20.0)[0].state \
            == "no_data"

    def test_per_shard_state_is_independent(self):
        monitor, events = self._monitor()
        hot, cold = _shard(0), _shard(1)
        _observe(hot, 1.0, value=0.9)
        _observe(cold, 1.0, value=0.0)
        monitor.evaluate({0: hot, 1: cold})
        assert monitor.breached == [("mean(serving.shed_rate)", 0)]
        assert [r["shard"] for r in events.records] == [0]

    def test_breach_triggers_recorder_dump(self, tmp_path):
        class StubRecorder:
            def __init__(self):
                self.reasons = []

            def dump(self, reason, *, directory=None, extra=None):
                self.reasons.append((reason, extra))

        recorder = StubRecorder()
        monitor = SloMonitor(["mean(serving.shed_rate) < 0.5"],
                             recorder=recorder)
        telemetry = _shard()
        _observe(telemetry, 1.0, value=0.9)
        monitor.evaluate({0: telemetry})
        monitor.evaluate({0: telemetry})      # no re-dump while breached
        assert len(recorder.reasons) == 1
        reason, extra = recorder.reasons[0]
        assert reason.startswith("slo-") and "shard0" in reason
        assert extra["value"] == pytest.approx(0.9)

    def test_accepts_a_live_sampler_directly(self):
        from repro.obs import TelemetrySampler

        class Source:
            def telemetry_sample(self):
                return [{"shard": 0, "queue_depth": 900,
                         "open_sessions": 1, "perf": {}}]

        sampler = TelemetrySampler(Source())
        sampler.sample(now=1.0)
        monitor = SloMonitor(["max(serving.queue_depth) < 512"])
        statuses = monitor.evaluate(sampler)
        assert statuses[0].state == "breach"

    def test_histogram_metric_quantile_rule(self):
        monitor, events = self._monitor(
            "p99(serving.step_latency_s) < 25ms over 10s")
        telemetry = _shard()
        slow = Histogram(boundaries=(0.001, 0.01, 0.1))
        for _ in range(10):
            slow.observe(0.09)
        telemetry.append("serving.step_latency_s", 1.0, slow)
        statuses = monitor.evaluate({0: telemetry})
        assert statuses[0].state == "breach"
        assert statuses[0].value > 0.025


class TestRecordedReplay:
    def _shards(self):
        """shed_rate goes 0 -> 1 -> 0: one breach, one recovery."""
        telemetry = _shard()
        for t, value in ((0.0, 0.0), (10.0, 1.0), (20.0, 0.0)):
            _observe(telemetry, t, value=value)
        return {0: telemetry}

    def test_transitions_fire_in_timestamp_order(self):
        report = evaluate_recorded(
            ["last(serving.shed_rate) < 0.5 over 5s"], self._shards())
        assert report.timestamps == 3
        assert not report.ok
        assert len(report.breach_events) == 1
        assert report.breach_events[0]["at"] == 10.0
        assert [r["type"] for r in report.events] \
            == ["slo.breach", "slo.recover"]
        # the final statuses reflect the last timestamp (recovered)
        assert report.statuses[0].state == "ok"

    def test_clean_series_is_ok(self):
        telemetry = _shard()
        _observe(telemetry, 0.0, value=0.0)
        report = evaluate_recorded(["last(serving.shed_rate) < 0.5"],
                                   {0: telemetry})
        assert report.ok
        assert "0 breach transition(s)" in report.render()

    def test_render_lists_breaches(self):
        report = evaluate_recorded(
            ["last(serving.shed_rate) < 0.5 over 5s"], self._shards())
        rendered = report.render()
        assert "breach @t=10" in rendered
        assert "1 breach transition(s) across 3 timestamp(s)" in rendered


class TestLoadRules:
    def test_from_json_file(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"rules": [
            {"name": "shed", "spec": "max(serving.shed_rate) < 0.01"},
            {"metric": "serving.queue_depth", "aggregate": "max",
             "threshold": 100},
        ]}))
        rules = load_rules(path)
        assert [rule.name for rule in rules] \
            == ["shed", "max(serving.queue_depth)"]

    def test_from_bare_list(self):
        rules = load_rules(["mean(x) < 1", "max(y) > 0"])
        assert len(rules) == 2

    def test_repo_rule_file_parses(self):
        from pathlib import Path

        path = Path(__file__).resolve().parents[2] \
            / "benchmarks" / "slo_rules.json"
        rules = load_rules(path)
        assert len(rules) >= 3
        assert any(rule.metric == "serving.shed_rate" for rule in rules)


class TestCliSlo:
    def _series(self, tmp_path, shed):
        from repro.obs import TelemetrySampler

        class Source:
            def __init__(self):
                self.counters = {}

            def telemetry_sample(self):
                return [{"shard": 0, "queue_depth": 0, "open_sessions": 1,
                         "perf": {"counters": dict(self.counters)}}]

        source = Source()
        sampler = TelemetrySampler(source)
        source.counters = {"serving.steps": 4}
        sampler.sample(now=0.0)
        source.counters = {"serving.steps": 8,
                           "serving.steps_shed": 4 if shed else 0}
        sampler.sample(now=1.0)
        path = tmp_path / "telemetry.json"
        sampler.save(path)
        return str(path)

    def _rules(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(
            {"rules": [{"name": "no-shed",
                        "spec": "max(serving.shed_rate) < 0.01 over 60s"}]}))
        return str(path)

    def test_clean_series_exits_zero(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        assert main(["slo", self._series(tmp_path, shed=False),
                     "--rules", self._rules(tmp_path)]) == 0
        assert "0 breach transition(s)" in capsys.readouterr().out

    def test_breaching_series_exits_nonzero(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        series = self._series(tmp_path, shed=True)
        rules = self._rules(tmp_path)
        assert main(["slo", series, "--rules", rules]) == 1
        assert "breach" in capsys.readouterr().out
        assert main(["slo", series, "--rules", rules,
                     "--report-only"]) == 0
