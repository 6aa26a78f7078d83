"""Tests for the shared instrumentation registry."""

import time

from repro.obs import Instrumentation, TimerStat
from repro.obs.instrumentation import _NULL_SCOPE


class TestTimerStat:
    def test_accumulates(self):
        stat = TimerStat()
        stat.add(0.25)
        stat.add(0.75)
        assert stat.count == 2
        assert stat.total == 1.0
        assert stat.mean == 0.5
        assert stat.min == 0.25
        assert stat.max == 0.75

    def test_empty_as_dict(self):
        report = TimerStat().as_dict()
        assert report["count"] == 0
        assert report["mean_ms"] == 0.0
        assert report["min_ms"] == 0.0


class TestInstrumentation:
    def test_disabled_scope_is_shared_noop(self):
        perf = Instrumentation(enabled=False)
        assert perf.scope("anything") is _NULL_SCOPE
        with perf.scope("anything"):
            pass
        assert perf.timers == {}

    def test_enabled_scope_records(self):
        perf = Instrumentation().enable()
        with perf.scope("work"):
            time.sleep(0.001)
        assert perf.timers["work"].count == 1
        assert perf.timers["work"].total > 0

    def test_counters_and_add_time(self):
        perf = Instrumentation(enabled=True)
        perf.count("events")
        perf.count("events", 4)
        perf.add_time("external", 0.5)
        assert perf.counters["events"] == 5
        assert perf.timers["external"].total == 0.5

    def test_disabled_counters_are_noops(self):
        perf = Instrumentation(enabled=False)
        perf.count("events")
        perf.add_time("external", 1.0)
        assert perf.counters == {}
        assert perf.timers == {}

    def test_reset_clears_but_keeps_enabled(self):
        perf = Instrumentation(enabled=True)
        perf.count("events")
        perf.reset()
        assert perf.counters == {}
        assert perf.enabled

    def test_report_and_summary(self):
        perf = Instrumentation(enabled=True)
        with perf.scope("alpha"):
            pass
        perf.count("hits", 3)
        report = perf.report()
        assert "alpha" in report["timers"]
        assert report["counters"] == {"hits": 3}
        text = perf.summary()
        assert "alpha" in text and "hits" in text

    def test_exceptions_propagate_and_still_record(self):
        perf = Instrumentation(enabled=True)
        try:
            with perf.scope("broken"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert perf.timers["broken"].count == 1
