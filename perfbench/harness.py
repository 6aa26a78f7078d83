"""Shared pieces of the benchmark: statistics, host record, probe, result.

Every workload module hands :func:`run_workload` a :class:`Workload`;
this module owns what is common to all of them: repeated set-up with a
median, the host probe around the timed phase, the split of a traced
run into an untraced and a traced half, and the final result line.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracer import IDLE, SETUP_SPANS, SpanRecorder

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: Shape of the fixed numpy probe run before and after the timed phase.
_PROBE_SIZE = 200
_PROBE_LOOPS = 300

OUT_DIR = Path(__file__).resolve().parent / "out"


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_probe_ms() -> float:
    """Median of five runs of a fixed single-threaded numpy loop, in ms."""
    rng = np.random.default_rng(0)
    a = rng.random((_PROBE_SIZE, _PROBE_SIZE))
    b = rng.random((_PROBE_SIZE, 8))
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(_PROBE_LOOPS // 5):
            np.tanh(a @ b)
            (a > 0.5).sum(axis=1)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000.0


def host_record(root: Path) -> dict:
    """Cores, BLAS threads, versions, source revision and ``src/`` size."""
    try:
        cores = sorted(os.sched_getaffinity(0))
    except AttributeError:
        cores = list(range(os.cpu_count() or 1))
    head = root / ".git" / "HEAD"
    revision = "unavailable"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            revision = ref_file.read_text().strip() \
                if ref_file.is_file() else ref[5:]
        else:
            revision = ref
    src_lines = sum(len(path.read_bytes().splitlines())
                    for path in (root / "src").rglob("*.py"))
    return {
        "affinity_cores": cores,
        "blas_threads": {name: os.environ.get(name) for name in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_rev": revision,
        "src_lines": src_lines,
    }


@dataclass
class Unit:
    """One timed unit of work: a pump cycle, an eval call or an epoch.

    ``busy`` is the server's working time inside the unit (the unit's
    wall time on closed-loop workloads); ``steps`` the work it did.
    ``kind`` names work that repeats: every unit of one kind does the
    same computation on the same inputs.  It is None for a unit whose
    work depends on timing, such as a ``serve_steady`` server tick.
    """

    start: float
    end: float
    busy: float
    steps: int
    kind: object = None


@dataclass
class Measured:
    """What a workload's timed phase produced (tracing off or split)."""

    latencies_ms: list
    slo_ms: float
    attempted: int
    missed: int                 # shed or failed operations
    wall_s: float
    units: list
    closed_loop: bool = False

    @property
    def steps(self) -> int:
        return sum(unit.steps for unit in self.units)


class TraceSwitch:
    """Turns tracing on half-way through the timed phase of a traced run.

    Workload loops call :meth:`poll` between units of work.  In an
    untraced run it does nothing; in a traced run it installs the span
    patches once the first half of the timed phase has elapsed, so one
    run yields both the untraced and the traced cost of the same work.
    """

    def __init__(self, recorder: SpanRecorder | None, start: float,
                 seconds: float):
        self.recorder = recorder
        self.switch_at = start + seconds / 2.0 if recorder else None
        self.traced_from: float | None = None

    @property
    def on(self) -> bool:
        return self.traced_from is not None

    def poll(self, request: int = 0) -> None:
        if self.recorder is None:
            return
        self.recorder.request = request
        if self.traced_from is None and time.perf_counter() >= self.switch_at:
            self.recorder.install()
            self.recorder.reset_counts()
            self.traced_from = time.perf_counter()

    def idle(self, start: float, end: float) -> None:
        if self.on:
            self.recorder.record(IDLE, start, end)


class Workload:
    """One named benchmark workload.

    Subclasses build their inputs in :meth:`setup` (timed, repeated),
    run the timed phase in :meth:`run`, check outputs in :meth:`check`
    and name the spans a traced run must record in ``required_spans``.
    """

    name = ""
    required_spans: tuple = ()

    def __init__(self, seed: int, scale: dict):
        self.seed = seed
        self.scale = scale

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float, switch: TraceSwitch) -> Measured:
        raise NotImplementedError

    def check(self) -> list:
        """Return one message per failed output check (empty when correct)."""
        raise NotImplementedError

    def layer_extras(self, since: float) -> dict:
        """Workload-specific per-layer values from the traced half."""
        return {}


def fastest_repetitions(units) -> list:
    """Each unit replaced by the fastest repetition of its kind.

    Units without a kind stand for themselves.
    """
    best: dict = {}
    for unit in units:
        if unit.kind is not None and (unit.kind not in best
                                      or unit.busy < best[unit.kind].busy):
            best[unit.kind] = unit
    return [unit if unit.kind is None else best[unit.kind]
            for unit in units]


def end_to_end(measured: Measured, setup_s: float) -> dict:
    """The end-to-end metrics of an untraced run.

    Work that repeats is timed at the fastest repetition of its kind
    (best-of-R, the estimator of Chen and Revels, "Robust benchmarking
    in noisy environments", 2016): the host's interference only ever
    slows a unit down.  Capacity always uses those times.  On the
    closed-loop workloads latency and throughput use them too, since a
    closed loop has no queue that would make slowness part of what a
    user sees; on the open-loop workloads latency runs from a step's due
    time and throughput is taken over the whole timed phase.
    """
    within = sum(1 for value in measured.latencies_ms
                 if value <= measured.slo_ms)
    timed = fastest_repetitions(measured.units)
    capacity = sum(unit.steps for unit in timed) / sum(
        unit.busy for unit in timed)
    if measured.closed_loop:
        latencies = [unit.busy * 1000.0 for unit in timed if unit.steps]
        throughput = capacity
    else:
        latencies = measured.latencies_ms
        throughput = measured.steps / measured.wall_s
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "latency_p50_ms": (percentile(latencies, 50), "ms"),
        "latency_p99_ms": (percentile(latencies, 99), "ms"),
        "within_slo_frac": (within / measured.attempted, "fraction"),
        "capacity_steps_per_s": (capacity, "steps/s"),
        "steps_per_s": (throughput, "steps/s"),
    }


def _mean_duration(recorder: SpanRecorder, name: str,
                   since: float = float("-inf")) -> float:
    spans = recorder.calls(name, since)
    if not spans:
        return 0.0
    return sum(s.end - s.start for s in spans) / len(spans)


def per_layer(workload: Workload, measured: Measured,
              recorder: SpanRecorder, switch: TraceSwitch,
              probe_ms: float) -> tuple[dict, list]:
    """The per-layer metrics and stage table of a traced run."""
    since = switch.traced_from
    if since is None:
        raise RuntimeError("the traced half never started; "
                           "the timed phase was shorter than one unit")
    missing = [name for name in workload.required_spans
               if not recorder.calls(
                   name, float("-inf") if name in SETUP_SPANS else since)]
    if missing:
        raise RuntimeError(
            f"workload {workload.name!r} recorded zero calls of {missing}")
    end = max(unit.end for unit in measured.units)
    before = [u for u in measured.units if u.end <= since]
    after = [u for u in measured.units if u.start >= since]
    steps_0, steps_1 = sum(u.steps for u in before), sum(u.steps for u in after)
    overhead = (sum(u.busy for u in after) / steps_1) / (
        sum(u.busy for u in before) / steps_0) - 1.0 \
        if steps_0 and steps_1 else 0.0
    table = recorder.stage_table(since, end)
    unattributed = table[-1][2]

    pumps = recorder.calls("serving.engine.pump", since)
    pump_self = dict((row[0], row[1]) for row in table).get(
        "serving.engine.pump", 0.0) / len(pumps) if pumps else 0.0
    convert_calls = recorder.calls("geometry.convert_rooms", since)
    churn_events = [s for s in recorder.calls("serving.session.churn", since)
                    if s.parent is None
                    or recorder.spans[s.parent].name
                    != "serving.session.churn"]

    def mean(name):
        return _mean_duration(recorder, name, since)

    metrics = {
        "datasets.generate_room_s": (
            _mean_duration(recorder, "datasets.generate_room"), "s"),
        "serving.workload.schedule_s": (
            _mean_duration(recorder, "serving.workload.schedule"), "s"),
        "geometry.convert_rooms_s": (mean("geometry.convert_rooms"), "s"),
        "geometry.convert_rooms_calls": (len(convert_calls), "count"),
        "geometry.rooms_per_call": (
            recorder.rooms / len(convert_calls) if convert_calls else 0.0,
            "rooms"),
        "geometry.edges_per_pair": (
            recorder.edges / recorder.pairs if recorder.pairs else 0.0,
            "ratio"),
        "geometry.prebuild_dogs_s": (mean("geometry.prebuild_dogs"), "s"),
        "geometry.visibility_s": (mean("geometry.visibility"), "s"),
        "core.scene.frames_s": (mean("core.scene.frames"), "s"),
        "core.utility.step_utility_s": (
            mean("core.utility.step_utility"), "s"),
        "core.evaluation.cold_s": (0.0, "s"),
        "core.evaluation.warm_s": (0.0, "s"),
        "core.evaluation.evaluate_episode_s": (
            mean("core.evaluation.evaluate_episode"), "s"),
        "models.poshgnn.recommend_s": (mean("models.poshgnn.recommend"), "s"),
        "models.poshgnn.mia_s": (mean("models.poshgnn.mia"), "s"),
        "models.poshgnn.pdr_s": (mean("models.poshgnn.pdr"), "s"),
        "models.poshgnn.lwp_s": (mean("models.poshgnn.lwp"), "s"),
        "models.baselines.recommend_s": (
            mean("models.baselines.recommend"), "s"),
        "nn.backward_s": (mean("nn.backward"), "s"),
        "nn.optim_step_s": (mean("nn.optim_step"), "s"),
        "training.epoch_s": (0.0, "s"),
        "training.epochs": (0, "count"),
        "serving.engine.submit_s": (mean("serving.engine.submit"), "s"),
        "serving.engine.pump_s": (mean("serving.engine.pump"), "s"),
        "serving.engine.pump_self_s": (pump_self, "s"),
        "serving.engine.steps_per_pump": (0.0, "steps"),
        "serving.engine.queue_wait_p50_ms": (0.0, "ms"),
        "serving.engine.shed_frac": (0.0, "fraction"),
        "serving.engine.degraded_frac": (0.0, "fraction"),
        "serving.session.churn_s": (mean("serving.session.churn"), "s"),
        "serving.session.churn_events": (len(churn_events), "count"),
        "serving.session.open_close_s": (
            mean("serving.session.open_close"), "s"),
        "loadgen.lag_p99_ms": (0.0, "ms"),
        "host.probe_ms": (probe_ms, "ms"),
        "trace.overhead_frac": (overhead, "fraction"),
        "trace.unattributed_frac": (unattributed, "fraction"),
    }
    for name, value in workload.layer_extras(since).items():
        metrics[name] = (value, metrics[name][1])
    return metrics, table


def run_workload(workload_cls, *, seed: int, seconds: float, trace: bool,
                 scale: dict, root: Path, out=sys.stdout) -> dict:
    """Set up, run, check and measure one workload; returns the result."""
    recorder = SpanRecorder() if trace else None
    setup_times = []
    for _ in range(SETUP_REPEATS):
        workload = None
        gc.collect()
        if recorder is not None:
            recorder.install()
        start = time.perf_counter()
        workload = workload_cls(seed, scale)
        workload.setup()
        setup_times.append(time.perf_counter() - start)
        if recorder is not None:
            recorder.remove()
    setup_s = statistics.median(setup_times)

    host = host_record(root)
    probe_before = host_probe_ms()
    gc.collect()
    start = time.perf_counter()
    switch = TraceSwitch(recorder, start, seconds)
    try:
        measured = workload.run(seconds, switch)
    finally:
        if recorder is not None:
            recorder.remove()
    probe_after = host_probe_ms()
    probe_ms = (probe_before + probe_after) / 2.0

    failures = workload.check()
    for message in failures:
        print(f"CHECK FAILED [{workload.name}]: {message}", file=out)

    table = None
    if trace:
        metrics, table = per_layer(workload, measured, recorder, switch,
                                   probe_ms)
    else:
        metrics = end_to_end(measured, setup_s)

    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": trace, "host": host, "setup_times_s": setup_times,
              "probe_ms": [probe_before, probe_after],
              "samples": len(measured.latencies_ms),
              "attempted": measured.attempted, "missed": measured.missed,
              "check_failures": failures}
    if table is not None:
        record["stage_table"] = [
            {"stage": stage, "seconds": seconds_, "share": share}
            for stage, seconds_, share in table]
        print(f"stage table ({workload.name}, traced half):", file=out)
        for stage, seconds_, share in table:
            print(f"  {stage:<36} {seconds_:9.4f} s  {share:7.2%}", file=out)
    print(json.dumps({"record": record}), file=out)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload.name}_seed{seed}_trace{int(trace)}.json"
     ).write_text(json.dumps(record, indent=1))

    return {
        "correct": not failures,
        "attempted": int(measured.attempted),
        "failed": int(measured.missed + len(failures)),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
