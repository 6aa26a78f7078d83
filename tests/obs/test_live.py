"""Live telemetry rings: series aggregates, sampler deltas, save/load."""

import json
import math

import pytest

from repro.obs import (
    SERIES_CAPACITY,
    TELEMETRY_SCHEMA_VERSION,
    Histogram,
    ShardTelemetry,
    TelemetrySampler,
    TimeSeries,
    load_telemetry,
    render_top,
)


def _latency_state(values, boundaries=(0.001, 0.01, 0.1)):
    """An export_state-shaped cumulative histogram over ``values``."""
    histogram = Histogram(boundaries=boundaries)
    for value in values:
        histogram.observe(value)
    return histogram.state()


class FakeSource:
    """A telemetry source scripted one sample at a time."""

    def __init__(self):
        self.entries = []

    def telemetry_sample(self):
        return self.entries

    def set(self, *, queue_depth=0, open_sessions=0, counters=None,
            histograms=None, shard=0):
        self.entries = [{
            "shard": shard,
            "queue_depth": queue_depth,
            "open_sessions": open_sessions,
            "perf": {"timers": {}, "counters": counters or {},
                     "histograms": histograms or {}},
        }]
        return self


class TestTimeSeries:
    """Float-gauge points."""

    def test_append_window_and_last(self):
        series = TimeSeries()
        for t in range(5):
            series.append(float(t), float(t) * 10.0)
        assert len(series) == 5
        assert series.last == (4.0, 40.0)
        assert [v for _, v in series.window(start=2.0)] == [20.0, 30.0,
                                                             40.0]
        assert [v for _, v in series.window(end=1.0)] == [0.0, 10.0]

    def test_ring_evicts_oldest(self):
        series = TimeSeries()
        for t in range(SERIES_CAPACITY + 3):
            series.append(float(t), float(t))
        assert len(series) == SERIES_CAPACITY
        assert series.points[0] == (3.0, 3.0)
        assert series.last == (SERIES_CAPACITY + 2.0,
                               SERIES_CAPACITY + 2.0)

    def test_aggregates(self):
        series = TimeSeries()
        for t, value in enumerate((4.0, 1.0, 3.0, 2.0)):
            series.append(float(t), value)
        assert series.aggregate("mean") == pytest.approx(2.5)
        assert series.aggregate("max") == 4.0
        assert series.aggregate("min") == 1.0
        assert series.aggregate("last") == 2.0
        assert series.aggregate("sum") == 10.0
        assert series.aggregate("p50") == pytest.approx(2.5)
        assert series.aggregate("count") == 4.0
        assert series.aggregate("count", start=2.0) == 2.0

    def test_empty_window_is_nan_not_zero(self):
        series = TimeSeries()
        assert math.isnan(series.aggregate("mean"))
        assert math.isnan(series.aggregate("count"))
        series.append(1.0, 5.0)
        # window entirely in the future -> still no data
        assert math.isnan(series.aggregate("mean", start=2.0))

    def test_unknown_aggregate_rejected(self):
        series = TimeSeries()
        series.append(0.0, 1.0)
        with pytest.raises(ValueError, match="aggregate"):
            series.aggregate("median")

    def test_state_round_trip(self):
        series = TimeSeries()
        series.append(1.0, 2.0)
        series.append(2.0, 3.0)
        state = series.state()
        assert state == {"capacity": SERIES_CAPACITY,
                         "points": [[1.0, 2.0], [2.0, 3.0]]}
        restored = TimeSeries.from_state(state)
        assert list(restored.points) == [(1.0, 2.0), (2.0, 3.0)]


class TestHistogramSeries:
    """Per-interval :class:`Histogram` points in the same ring."""

    def _delta(self, values):
        histogram = Histogram(boundaries=(1.0, 2.0, 5.0))
        for value in values:
            histogram.observe(value)
        return histogram

    def test_window_merge_matches_single_histogram(self):
        series = TimeSeries()
        series.append(0.0, self._delta([0.5, 1.5]))
        series.append(1.0, self._delta([3.0, 9.0]))
        combined = self._delta([0.5, 1.5, 3.0, 9.0])
        assert series.aggregate("count") == 4.0
        assert series.aggregate("sum") == pytest.approx(combined.total)
        assert series.aggregate("mean") == pytest.approx(combined.mean)
        assert series.aggregate("max") == 9.0
        assert series.aggregate("min") == 0.5
        for q in (50, 90, 99):
            assert series.aggregate(f"p{q}") == combined.quantile(q / 100)
        # "last" has no meaning over merged intervals: no data
        assert math.isnan(series.aggregate("last"))

    def test_merge_does_not_mutate_interval_deltas(self):
        series = TimeSeries()
        first = self._delta([0.5])
        series.append(0.0, first)
        series.append(1.0, self._delta([3.0]))
        series.aggregate("p50")
        assert first.count == 1          # the ring's delta is untouched

    def test_windowed_quantile_over_recent_intervals_only(self):
        series = TimeSeries()
        series.append(0.0, self._delta([9.0, 9.0, 9.0]))
        series.append(5.0, self._delta([0.5, 0.5, 0.5]))
        # full window sees the old spike; trailing window does not
        assert series.aggregate("p99") > 1.0
        assert series.aggregate("p99", start=4.0) <= 1.0

    def test_empty_window_is_nan(self):
        series = TimeSeries()
        assert math.isnan(series.aggregate("p50"))
        series.append(1.0, self._delta([0.5]))
        assert math.isnan(series.aggregate("p99", start=2.0))
        assert math.isnan(series.aggregate("mean", start=2.0))

    def test_ring_evicts_oldest(self):
        series = TimeSeries()
        for t in range(SERIES_CAPACITY + 2):
            series.append(float(t), self._delta([1.5]))
        assert len(series) == SERIES_CAPACITY
        assert series.points[0][0] == 2.0
        assert series.aggregate("count") == float(SERIES_CAPACITY)

    def test_state_round_trip(self):
        series = TimeSeries()
        series.append(1.0, self._delta([0.5, 4.0]))
        restored = TimeSeries.from_state(series.state())
        assert restored.aggregate("count") == 2.0
        assert restored.last[1].bucket_counts \
            == series.last[1].bucket_counts


class TestShardTelemetry:
    def test_aggregate_dispatch_and_unknown_metric(self):
        telemetry = ShardTelemetry(shard=0)
        telemetry.append("serving.queue_depth", 1.0, 7.0)
        histogram = Histogram(boundaries=(1.0,))
        histogram.observe(0.5)
        telemetry.append("serving.step_latency_s", 2.0, histogram)
        assert list(telemetry.gauges) == ["serving.queue_depth"]
        assert list(telemetry.histograms) == ["serving.step_latency_s"]
        assert telemetry.aggregate("serving.queue_depth", "last") == 7.0
        assert telemetry.aggregate("serving.step_latency_s", "p50") == 0.5
        assert math.isnan(telemetry.aggregate("no.such.metric", "mean"))

    def test_latest_timestamp_spans_all_series(self):
        telemetry = ShardTelemetry(shard=0)
        assert math.isnan(telemetry.latest_timestamp())
        telemetry.append("a", 1.0, 0.0)
        assert telemetry.latest_timestamp() == 1.0
        histogram = Histogram(boundaries=(1.0,))
        histogram.observe(0.5)
        telemetry.append("b", 3.0, histogram)
        assert telemetry.latest_timestamp() == 3.0
        assert telemetry.timestamps() == {1.0, 3.0}


class TestTelemetrySampler:
    def test_direct_gauges_always_sampled(self):
        source = FakeSource().set(queue_depth=5, open_sessions=2)
        sampler = TelemetrySampler(source)
        sampler.sample(now=1.0)
        telemetry = sampler.shards[0]
        assert telemetry.aggregate("serving.queue_depth", "last") == 5.0
        assert telemetry.aggregate("serving.open_sessions", "last") == 2.0
        assert sampler.samples == 1

    def test_counter_deltas_become_interval_rates(self):
        source = FakeSource()
        sampler = TelemetrySampler(source)
        source.set(counters={"serving.steps": 10})
        sampler.sample(now=0.0)
        source.set(counters={"serving.steps": 16, "serving.steps_shed": 2})
        sampler.sample(now=2.0)
        telemetry = sampler.shards[0]
        # interval consumed 6 steps + 2 shed
        assert telemetry.aggregate("serving.shed_rate", "last") \
            == pytest.approx(2 / 8)
        assert telemetry.aggregate("serving.throughput_steps_per_s",
                                   "last") == pytest.approx(6 / 2.0)

    def test_idle_interval_appends_no_rate_point(self):
        source = FakeSource()
        sampler = TelemetrySampler(source)
        source.set(counters={"serving.steps": 10})
        sampler.sample(now=0.0)
        sampler.sample(now=1.0)          # counters unchanged: idle
        telemetry = sampler.shards[0]
        # one point from the first sample, none from the idle interval
        assert len(telemetry.gauges["serving.shed_rate"]) == 1
        assert math.isnan(telemetry.aggregate("serving.shed_rate", "mean",
                                              start=0.5))

    def test_registry_reset_treated_as_fresh_baseline(self):
        source = FakeSource()
        sampler = TelemetrySampler(source)
        source.set(counters={"serving.steps": 100})
        sampler.sample(now=0.0)
        # registry reset (PERF.reset()), then 4 more steps: the counter
        # went backwards
        source.set(counters={"serving.steps": 4})
        sampler.sample(now=1.0)
        telemetry = sampler.shards[0]
        assert telemetry.aggregate("serving.throughput_steps_per_s",
                                   "last") == pytest.approx(4.0)

    def test_histogram_delta_is_interval_only(self):
        source = FakeSource()
        sampler = TelemetrySampler(source)
        source.set(counters={"serving.steps": 1},
                   histograms={"serving.step_latency_s":
                               _latency_state([0.005])})
        sampler.sample(now=0.0)
        source.set(counters={"serving.steps": 3},
                   histograms={"serving.step_latency_s":
                               _latency_state([0.005, 0.05, 0.05])})
        sampler.sample(now=1.0)
        series = sampler.shards[0].histograms["serving.step_latency_s"]
        assert len(series) == 2
        t, delta = series.last
        assert t == 1.0
        assert delta.count == 2          # only the interval's observations

    def test_histogram_reset_treated_as_fresh_baseline(self):
        source = FakeSource()
        sampler = TelemetrySampler(source)
        source.set(counters={"serving.steps": 3},
                   histograms={"serving.step_latency_s":
                               _latency_state([0.005, 0.05, 0.05])})
        sampler.sample(now=0.0)
        # reset between samples: fewer counts than before
        source.set(counters={"serving.steps": 4},
                   histograms={"serving.step_latency_s":
                               _latency_state([0.005])})
        sampler.sample(now=1.0)
        series = sampler.shards[0].histograms["serving.step_latency_s"]
        assert series.last[1].count == 1

    def test_empty_interval_histogram_not_appended(self):
        source = FakeSource()
        sampler = TelemetrySampler(source)
        source.set(counters={"serving.steps": 1},
                   histograms={"serving.step_latency_s":
                               _latency_state([0.005])})
        sampler.sample(now=0.0)
        sampler.sample(now=1.0)          # unchanged: no new observations
        series = sampler.shards[0].histograms["serving.step_latency_s"]
        assert len(series) == 1

    def test_save_load_round_trip(self, tmp_path):
        source = FakeSource().set(queue_depth=3, open_sessions=1,
                                  counters={"serving.steps": 5})
        sampler = TelemetrySampler(source)
        sampler.sample(now=0.0)
        path = tmp_path / "telemetry.json"
        sampler.save(path)
        document = json.loads(path.read_text())
        assert document["schema"] == TELEMETRY_SCHEMA_VERSION
        assert document["kind"] == "repro.telemetry"
        shards = load_telemetry(path)
        assert shards[0].aggregate("serving.queue_depth", "last") == 3.0

    def test_load_rejects_newer_schema(self):
        with pytest.raises(ValueError, match="schema"):
            load_telemetry({"schema": TELEMETRY_SCHEMA_VERSION + 1,
                            "shards": {}})


class TestRenderTop:
    def test_rows_values_and_no_data_dashes(self):
        source = FakeSource()
        sampler = TelemetrySampler(source)
        source.set(queue_depth=4, open_sessions=2,
                   counters={"serving.steps": 8},
                   histograms={"serving.step_latency_s":
                               _latency_state([0.005] * 8)})
        sampler.sample(now=0.0)
        source.set(queue_depth=0, open_sessions=2,
                   counters={"serving.steps": 16},
                   histograms={"serving.step_latency_s":
                               _latency_state([0.005] * 16)})
        sampler.sample(now=1.0)
        out = render_top(sampler.shards, window_s=5.0)
        lines = out.splitlines()
        assert "shard" in lines[0] and "p99 ms" in lines[0]
        row = lines[1].split()
        assert row[0] == "0"
        assert row[1] == "2"             # open sessions
        assert "-" in row                # batch-size series never sampled

    def test_empty_fleet(self):
        assert render_top({}) == "(no telemetry)"


class TestCliTop:
    def _series(self, tmp_path):
        source = FakeSource().set(queue_depth=2, open_sessions=3,
                                  counters={"serving.steps": 6})
        sampler = TelemetrySampler(source)
        sampler.sample(now=0.0)
        sampler.sample(now=1.0)
        path = tmp_path / "telemetry.json"
        sampler.save(path)
        return str(path)

    def test_top_renders_table(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        assert main(["top", self._series(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "shard" in out and "queue" in out

    def test_top_missing_file_exits_nonzero(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        assert main(["top", str(tmp_path / "missing.json")]) == 1
        assert "no telemetry" in capsys.readouterr().err
