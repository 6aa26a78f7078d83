"""Flight recorder: bounded rings, attach/detach, incident bundles."""

import json
import time

import pytest

from repro.obs import (
    INCIDENT_SCHEMA_VERSION,
    RING_EVENTS,
    RING_SPANS,
    EventLog,
    FlightRecorder,
    Tracer,
    default_incident_root,
    load_incident,
)


def _recorder(tmp_path):
    return FlightRecorder(directory=tmp_path / "incidents")


class TestRings:
    def test_span_and_event_rings_are_bounded(self, tmp_path):
        recorder = _recorder(tmp_path)
        tracer = Tracer(enabled=False)
        recorder.attach(tracer=tracer)
        for index in range(RING_SPANS + 2):
            with tracer.span(f"s{index}"):
                pass
        for index in range(RING_EVENTS + 3):
            recorder.record_event({"type": "e", "seq": index})
        assert len(recorder.spans) == RING_SPANS
        assert recorder.spans[0].name == "s2"
        assert recorder.spans[-1].name == f"s{RING_SPANS + 1}"
        assert len(recorder.events) == RING_EVENTS
        assert recorder.events[0]["seq"] == 3
        recorder.detach()

    def test_event_listener_feeds_ring(self, tmp_path):
        recorder = _recorder(tmp_path)
        events = EventLog()
        recorder.attach(events=events)
        events.emit("serving.session_shed", session_id="a")
        assert list(recorder.events)[-1]["type"] == "serving.session_shed"
        recorder.detach()
        events.emit("after.detach")
        assert list(recorder.events)[-1]["type"] == "serving.session_shed"

    def test_adopted_events_feed_ring(self, tmp_path):
        recorder = _recorder(tmp_path)
        parent = EventLog()
        recorder.attach(events=parent)
        worker = EventLog()
        worker.emit("session.open", session_id="a")
        parent.adopt(worker.records, shard=2)
        assert list(recorder.events)[-1]["shard"] == 2
        recorder.detach()


class TestAttachDetach:
    def test_attach_enables_tracing_without_retention(self, tmp_path):
        recorder = _recorder(tmp_path)
        tracer = Tracer(enabled=False)
        recorder.attach(tracer=tracer)
        assert tracer.enabled and not tracer.retain_spans
        with tracer.span("work"):
            pass
        # the span reached the ring but not the tracer's own list
        assert [span.name for span in recorder.spans] == ["work"]
        assert tracer.spans == []
        recorder.detach()
        assert not tracer.enabled and tracer.retain_spans

    def test_detach_restores_prior_flags_exactly(self, tmp_path):
        recorder = _recorder(tmp_path)
        tracer = Tracer(enabled=True)
        events = EventLog()
        recorder.attach(tracer=tracer, events=events)
        assert not tracer.retain_spans
        recorder.detach()
        assert tracer.enabled and tracer.retain_spans
        assert recorder.record_span not in tracer.listeners
        assert recorder.record_event not in events.listeners

    def test_context_manager_detaches(self, tmp_path):
        tracer = Tracer(enabled=False)
        with _recorder(tmp_path).attach(tracer=tracer) as recorder:
            assert tracer.enabled
        assert not tracer.enabled
        assert recorder.record_span not in tracer.listeners


class TestDump:
    def _attached(self, tmp_path):
        recorder = _recorder(tmp_path)
        tracer = Tracer(enabled=False)
        events = EventLog()
        recorder.attach(tracer=tracer, events=events)
        with tracer.span("serving.pump", {"batch": 4}):
            with tracer.span("serving.step"):
                pass
        events.emit("serving.session_shed", session_id="x")
        return recorder, tracer, events

    def test_bundle_layout_and_manifest(self, tmp_path):
        recorder, _, _ = self._attached(tmp_path)
        before = time.time()
        bundle = recorder.dump("slo-shed-rate-shard0",
                               extra={"rule": "shed-rate"})
        assert bundle.name == "slo-shed-rate-shard0-000"
        assert (bundle / "trace.json").exists()
        assert (bundle / "events.jsonl").exists()
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert manifest["schema"] == INCIDENT_SCHEMA_VERSION
        assert manifest["kind"] == "repro.incident"
        assert manifest["reason"] == "slo-shed-rate-shard0"
        assert before <= manifest["t"] <= time.time()
        assert manifest["spans"] == 2 and manifest["events"] == 1
        assert manifest["extra"] == {"rule": "shed-rate"}
        recorder.detach()

    def test_load_incident_round_trips_spans(self, tmp_path):
        recorder, _, _ = self._attached(tmp_path)
        bundle = recorder.dump("shard1-failure")
        incident = load_incident(bundle)
        names = sorted(span.name for span in incident["spans"])
        assert names == ["serving.pump", "serving.step"]
        assert incident["events"][0]["type"] == "serving.session_shed"
        assert incident["manifest"]["reason"] == "shard1-failure"
        recorder.detach()

    def test_consecutive_dumps_keep_history_and_sequence(self, tmp_path):
        recorder, _, events = self._attached(tmp_path)
        first = recorder.dump("breach")
        events.emit("serving.session_shed", session_id="y")
        second = recorder.dump("breach")
        assert first.name == "breach-000" and second.name == "breach-001"
        assert len(load_incident(first)["events"]) == 1
        assert len(load_incident(second)["events"]) == 2
        assert recorder.dumps == [first, second]
        recorder.detach()

    def test_reason_is_slugged(self, tmp_path):
        recorder = _recorder(tmp_path)
        bundle = recorder.dump("p99(serving.step_latency_s) < 25ms!")
        assert "(" not in bundle.name and " " not in bundle.name

    def test_unjsonable_event_payloads_survive(self, tmp_path):
        recorder = _recorder(tmp_path)
        recorder.record_event({"type": "x", "bad": object()})
        incident = load_incident(recorder.dump("weird"))
        assert "object" in incident["events"][0]["bad"]

    def test_load_rejects_newer_schema(self, tmp_path):
        recorder = _recorder(tmp_path)
        bundle = recorder.dump("x")
        manifest = json.loads((bundle / "manifest.json").read_text())
        manifest["schema"] = INCIDENT_SCHEMA_VERSION + 1
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="schema"):
            load_incident(bundle)


class TestDefaultRoot:
    def test_honours_run_dir_convention(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_DIR", str(tmp_path / "run"))
        assert default_incident_root() == tmp_path / "run" / "incidents"
        monkeypatch.delenv("REPRO_RUN_DIR")
        assert default_incident_root().parts[-2:] == ("runs", "incidents")
