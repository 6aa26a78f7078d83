"""Span tracer: nesting, thread/fork awareness, disabled overhead."""

import threading
import tracemalloc

from repro.obs import PERF, Instrumentation, Tracer
from repro.obs.trace import _NULL_SPAN


class TestNesting:
    def test_nested_spans_record_depth_and_order(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("middle"):
                with tracer.span("inner"):
                    pass
            with tracer.span("middle2"):
                pass
        names = [span.name for span in tracer.spans]
        # Spans finish children-first.
        assert names == ["inner", "middle", "middle2", "outer"]
        depths = {span.name: span.depth for span in tracer.spans}
        assert depths == {"outer": 0, "middle": 1, "inner": 2,
                          "middle2": 1}

    def test_children_lie_within_parent_interval(self):
        tracer = Tracer(enabled=True)
        with tracer.span("parent"):
            with tracer.span("child"):
                pass
        spans = {span.name: span for span in tracer.spans}
        parent, child = spans["parent"], spans["child"]
        assert parent.ts_us <= child.ts_us
        assert child.ts_us + child.dur_us <= parent.ts_us + parent.dur_us \
            + 1e-6

    def test_exceptions_close_the_span(self):
        tracer = Tracer(enabled=True)
        try:
            with tracer.span("broken"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert [span.name for span in tracer.spans] == ["broken"]
        # Depth counter unwound: the next root span is depth 0 again.
        with tracer.span("after"):
            pass
        assert tracer.spans[-1].depth == 0

    def test_attrs_attached(self):
        tracer = Tracer(enabled=True)
        with tracer.span("episode", {"target": 3}):
            pass
        assert tracer.spans[0].attrs == {"target": 3}


class TestThreadAwareness:
    def test_threads_record_distinct_tids_and_depths(self):
        tracer = Tracer(enabled=True)

        def worker():
            with tracer.span("thread-root"):
                with tracer.span("thread-child"):
                    pass

        with tracer.span("main-root"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        tids = {span.tid for span in tracer.spans}
        assert len(tids) == 2
        by_name = {span.name: span for span in tracer.spans}
        # The worker's root nests under nothing despite the main
        # thread's open span: depth is tracked per thread.
        assert by_name["thread-root"].depth == 0
        assert by_name["thread-child"].depth == 1
        assert by_name["main-root"].depth == 0


class TestDisabledOverhead:
    def test_disabled_span_is_shared_noop(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("anything") is _NULL_SPAN
        with tracer.span("anything"):
            pass
        assert tracer.spans == []

    def test_disabled_hot_path_allocates_nothing(self):
        """The disabled fast path must not allocate (hot-loop safe)."""
        perf = Instrumentation(enabled=False, tracer=Tracer(enabled=False))
        perf.scope("warmup")           # warm any lazy state
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            for _ in range(1000):
                with perf.scope("hot"):
                    pass
                perf.count("hot")
                perf.observe("hot", 1.0)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        import repro.obs.instrumentation as module
        grew = [stat for stat in after.compare_to(before, "filename")
                if stat.size_diff > 0
                and module.__file__ in str(stat.traceback)]
        assert not grew, grew

    def test_perf_scope_bridges_to_enabled_tracer(self):
        tracer = Tracer(enabled=True)
        perf = Instrumentation(enabled=False, tracer=tracer)
        with perf.scope("bridged", {"k": 1}):
            pass
        assert perf.timers == {}            # timer side still disabled
        assert [span.name for span in tracer.spans] == ["bridged"]
        assert tracer.spans[0].attrs == {"k": 1}

    def test_perf_scope_records_timer_and_span_together(self):
        tracer = Tracer(enabled=True)
        perf = Instrumentation(enabled=True, tracer=tracer)
        with perf.scope("both"):
            pass
        assert perf.timers["both"].count == 1
        assert [span.name for span in tracer.spans] == ["both"]


class TestForkPlumbing:
    def test_max_spans_bounds_memory(self):
        tracer = Tracer(enabled=True, max_spans=2)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert len(tracer.spans) == 2
        assert tracer.dropped == 3

    def test_reset_clears_spans(self):
        tracer = Tracer(enabled=True)
        with tracer.span("x"):
            pass
        tracer.reset()
        assert tracer.spans == [] and tracer.dropped == 0


class TestGlobalWiring:
    def test_perf_is_bound_to_the_global_tracer(self):
        from repro.obs import TRACER
        assert PERF.tracer is TRACER
