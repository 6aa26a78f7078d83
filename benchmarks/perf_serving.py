"""Perf harness for the streaming session-serving engine.

Replays 64 concurrent paper-scale rooms (N = 200 users) through the
cross-room micro-batching :class:`~repro.serving.SessionEngine`, times
it against serial one-room-at-a-time stepping over the same sessions,
asserts that both produce bit-identical per-room episode metrics, and
writes the measurements to ``BENCH_serving.json``.

Run directly::

    PYTHONPATH=src python benchmarks/perf_serving.py

or as a benchmark test::

    PYTHONPATH=src pytest benchmarks/test_serving.py

Timing covers the steady state a live deployment cares about — sessions
are opened before the clock starts, then every tick submits one position
frame per room and pumps — so rooms/sec means sustained streaming
throughput, not session setup.  ``REPRO_PERF_TINY=1`` shrinks the run to
a seconds-long CI smoke that skips the speedup floor and writes its
record under the run directory, so it never overwrites the committed
full-scale record at the repo root.

Besides the timings the harness records:

* exact p50/p99 per-step latencies (submit to completed record) from the
  timed engine run;
* an *overload* replay against a deliberately undersized queue, whose
  shed/degrade accounting is cross-checked against the engine's
  ``session.shed``/``session.degrade`` events;
* an instrumented pass with the full observability stack on, written as
  ``trace_serving.json`` — a Chrome/Perfetto ``trace_event`` file of the
  per-batch serving phases (geometry, frames, recommend, visibility) —
  openable directly at ``ui.perfetto.dev``;
* an *SLO overload* run: the same undersized ladder monitored live by a
  :class:`~repro.obs.SloMonitor` with a :class:`~repro.obs.FlightRecorder`
  attached — the deterministic shedding must trigger an ``slo.breach``
  and the dumped incident bundle must round-trip through
  :func:`~repro.obs.load_incident`;
* a *telemetry overhead* row: the identical steady-state tick loop run
  with the :class:`~repro.obs.TelemetrySampler` off and on (one sample
  per tick) over :data:`TELEMETRY_PAIRS` interleaved pairs, gating the
  median per-pair cost against :data:`TELEMETRY_OVERHEAD_CEILING`,
  recording the directly timed ``sample()`` seconds and their share of
  each sampler-on arm, and writing the sampled per-shard series as
  ``telemetry_serving.json``
  for ``python -m repro.obs top``/``slo``.

Artifacts land under ``REPRO_RUN_DIR`` (falling back to the repo's
gitignored ``runs/`` directory), never at the repo root.

Gate a fresh run against the committed baseline with::

    python -m repro.obs gate --baseline BENCH_serving.json \
        --current /tmp/new.json
"""

from __future__ import annotations

import json
import multiprocessing
import os
import tempfile
import time
from dataclasses import asdict, dataclass
import numpy as np

from bench_paths import default_run_dir, result_path, run_relative
from repro.core.problem import AfterProblem
from repro.datasets import RoomConfig, generate_room
from repro.models import NearestRecommender
from repro.obs import (PERF, TRACER, EventLog, FlightRecorder, SloMonitor,
                       SloRule, TelemetrySampler, load_incident,
                       write_chrome_trace)
from repro.serving import (Fleet, ReplayDriver, RoomSession, SessionEngine,
                           canned_spec, run_scenario)

__all__ = ["ServingBenchConfig", "run_serving_bench", "main"]

RECORD_NAME = "BENCH_serving.json"

#: Acceptance floor: micro-batched streaming must beat serial
#: one-room-at-a-time stepping by at least this factor at the default
#: 64-room scale.
SPEEDUP_FLOOR = 3.0

#: Sharded-fleet scale points measured by the scaling table.
FLEET_SHARD_COUNTS = (1, 2)

#: Acceptance floor: two shards must deliver at least this factor of
#: one shard's aggregate rooms/sec on the 64-room workload.  Enforced
#: only when the machine actually has two cores to scale onto — on a
#: single-core host the table still reports the (necessarily <1x)
#: measured factor, it just cannot gate.
FLEET_SCALING_FLOOR = 1.7

#: Acceptance ceiling: steady-state streaming with the telemetry
#: sampler on (one sample per tick, PERF enabled) may cost at most this
#: fraction over the telemetry-off loop, in the median over
#: :data:`TELEMETRY_PAIRS` pairs.  Enforced at full scale only — tiny
#: CI runs record the measured fraction but are pure noise.
TELEMETRY_OVERHEAD_CEILING = 0.03

#: Interleaved telemetry-off/telemetry-on pairs the overhead check
#: times; the arm that runs first alternates from pair to pair.
TELEMETRY_PAIRS = 11

#: The SLO rules the forced-overload run is monitored against.  The
#: shed-rate rule *must* breach — the undersized queue sheds
#: deterministically (admission is pure queue-depth arithmetic) — which
#: is what pins the breach -> event -> incident-bundle path end to end.
SLO_OVERLOAD_RULES = (
    ("shed-rate", "mean(serving.shed_rate) < 0.01 over 60s"),
    ("step-latency", "p99(serving.step_latency_s) < 25ms over 60s"),
)


#: Catalogue workload scenarios the bench replays end to end (see
#: :mod:`repro.serving.workload`).  Each run records its deterministic
#: schedule hash, shed accounting and telemetry-derived latency, and
#: replays the recorded series through the spec's own SLO rules.  The
#: SLO verdict gates only on >=2-core non-tiny hosts — the declared
#: latency budgets assume a machine that can actually parallelise the
#: fleet; elsewhere the verdict is recorded report-only.
BENCH_SCENARIOS = ("diurnal", "flash_crowd")


def _available_cores() -> int:
    """Cores this process may run on (affinity-aware, min 1)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:               # non-Linux fallback
        return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class ServingBenchConfig:
    """Scale knobs for the serving-engine benchmark."""

    num_rooms: int = 64
    num_users: int = 200
    num_steps: int = 4
    repeats: int = 3
    overload_pump_interval: int = 3
    dataset: str = "smm"
    seed: int = 0

    @classmethod
    def from_env(cls) -> "ServingBenchConfig":
        if os.environ.get("REPRO_PERF_TINY"):
            return cls(num_rooms=8, num_users=24, num_steps=3, repeats=1)
        return cls()

    @property
    def is_tiny(self) -> bool:
        return self.num_users < 64

    @property
    def ticks(self) -> int:
        """Position frames per room (a horizon-T trajectory has T+1)."""
        return self.num_steps + 1


def _generate_rooms(config: ServingBenchConfig) -> list:
    """The bench workload: one (room, target) pair per concurrent room.

    Targets alternate over the user index, so the batch mixes MR targets
    (forced co-located users) with VR targets (none) in one group.
    """
    room_config = RoomConfig(num_users=config.num_users,
                             num_steps=config.num_steps)
    rooms = [generate_room(config.dataset, room_config,
                           seed=config.seed + index)
             for index in range(config.num_rooms)]
    targets = [index % config.num_users for index in range(config.num_rooms)]
    return list(zip(rooms, targets))


def _serial_stream(workload, config: ServingBenchConfig) -> tuple:
    """Steady-state serial baseline: one room at a time, no batching.

    Sessions are opened before the clock starts; the timed region steps
    every room's full trajectory through
    :meth:`~repro.serving.RoomSession.step` — the engine's kernels at
    B = 1, one call each for geometry, frame and visibility per step:
    what a server without micro-batching runs.
    """
    sessions = []
    for room, target in workload:
        session = RoomSession(AfterProblem(room=room, target=target),
                              NearestRecommender())
        session.begin()
        sessions.append(session)
    start = time.perf_counter()
    for session, (room, _) in zip(sessions, workload):
        for tick in range(config.ticks):
            session.step(room.trajectory.positions[tick])
    elapsed = time.perf_counter() - start
    return elapsed, [session.result() for session in sessions]


def _engine_stream(workload, config: ServingBenchConfig) -> tuple:
    """Steady-state engine run: submit one tick per room, pump, repeat.

    Returns the elapsed seconds, per-room results and the per-step
    latencies (submit to completed record) of every processed step.
    """
    with SessionEngine(max_batch=config.num_rooms,
                       max_queue=config.num_rooms * config.ticks,
                       events=EventLog()) as engine:
        driver = ReplayDriver(engine)
        sessions = [driver.add_room(room, target, NearestRecommender(),
                                    session_id=f"room-{index:03d}")
                    for index, (room, target) in enumerate(workload)]
        start = time.perf_counter()
        driver.run()
        elapsed = time.perf_counter() - start
        results = [session.result() for session in sessions]
        latencies = [step.latency_s for session in sessions
                     for step in session.steps if not step.shed]
    return elapsed, results, latencies


def _overload_replay(workload, config: ServingBenchConfig) -> dict:
    """Replay against an undersized queue and account for the shedding.

    The queue holds half of one tick's submissions and the driver pumps
    only every ``overload_pump_interval`` ticks, so admission control
    must shed; the upper half of the admitted window degrades to the
    greedy MWIS fallback.  Shed/degrade counts are cross-checked against
    the engine's ``session.shed``/``session.degrade`` events and the
    returned tickets — the stress tests pin exact equality, the bench
    records the rates.
    """
    events = EventLog()
    max_queue = max(2, config.num_rooms // 2)
    with SessionEngine(max_batch=config.num_rooms, max_queue=max_queue,
                       degrade_at=max(1, max_queue // 2),
                       events=events) as engine:
        driver = ReplayDriver(engine,
                              pump_interval=config.overload_pump_interval)
        for index, (room, target) in enumerate(workload):
            driver.add_room(room, target, NearestRecommender(),
                            session_id=f"overload-{index:03d}")
        tickets = driver.run()
        sessions = [engine.session(f"overload-{index:03d}")
                    for index in range(len(workload))]
        shed_steps = sum(session.shed_count for session in sessions)
        degraded_steps = sum(session.degraded_count for session in sessions)

    submitted = sum(len(per_session) for per_session in tickets.values())
    shed_tickets = sum(ticket.status == "shed"
                       for per_session in tickets.values()
                       for ticket in per_session)
    counts = events.counts
    return {
        "submitted": submitted,
        "processed": submitted - shed_steps,
        "shed": shed_steps,
        "degraded": degraded_steps,
        "shed_rate": shed_steps / submitted,
        "degraded_rate": degraded_steps / submitted,
        "events_consistent": bool(
            counts.get("session.shed", 0) == shed_steps == shed_tickets
            and counts.get("session.degrade", 0) == degraded_steps),
    }


def _telemetry_stream(workload, config: ServingBenchConfig,
                      telemetry: bool) -> tuple:
    """One steady-state tick loop, with or without the live sampler.

    Both arms run the *identical* manual submit-then-pump loop (the
    only difference is PERF being enabled and one
    :meth:`~repro.obs.TelemetrySampler.sample` per tick), so the timing
    ratio isolates exactly the cost of live telemetry.  The ``sample()``
    calls are also timed on their own and returned as ``sample_s``.
    Sample timestamps are the tick index, keeping the recorded series
    deterministic.
    """
    sampler = None
    sample_s = 0.0
    with SessionEngine(max_batch=config.num_rooms,
                       max_queue=config.num_rooms * config.ticks,
                       events=EventLog()) as engine:
        sessions = [engine.open_session(
            AfterProblem(room=room, target=target), NearestRecommender(),
            session_id=f"telemetry-{index:03d}")
            for index, (room, target) in enumerate(workload)]
        if telemetry:
            PERF.reset().enable()
            sampler = TelemetrySampler(engine)
        start = time.perf_counter()
        for tick in range(config.ticks):
            for index, (room, _) in enumerate(workload):
                engine.submit(f"telemetry-{index:03d}",
                              room.trajectory.positions[tick])
            engine.pump()
            if sampler is not None:
                sample_start = time.perf_counter()
                sampler.sample(now=float(tick))
                sample_s += time.perf_counter() - sample_start
        elapsed = time.perf_counter() - start
        if telemetry:
            PERF.disable()
        results = [session.result() for session in sessions]
    return elapsed, results, sampler, sample_s


def _telemetry_overhead(workload, config: ServingBenchConfig,
                        fingerprint, telemetry_path=None) -> dict:
    """Median-of-pairs telemetry-off vs telemetry-on comparison.

    Times :data:`TELEMETRY_PAIRS` pairs of back-to-back arms; the arm
    that runs first alternates between pairs, so drift in host speed
    hits both sides alike.  ``overhead_frac`` is the median per-pair
    on/off ratio minus one; every pair and the ratios' interquartile
    range are recorded with it.  Each pair also records the seconds
    spent inside ``sample()`` and their share of its sampler-on arm
    (``sample_frac``, median in ``sample_frac_median``), which says how
    much of the ratio is sampling at all.  The sampled series of the last
    telemetry run is written to ``telemetry_path`` for the ``obs top``
    / ``obs slo`` CLIs.
    """
    pairs = []
    identical = True
    sampler = None
    for index in range(TELEMETRY_PAIRS):
        seconds = {}
        for telemetry in (index % 2 == 1, index % 2 == 0):
            elapsed, results, run_sampler, sample_s = _telemetry_stream(
                workload, config, telemetry=telemetry)
            seconds[telemetry] = elapsed
            identical = identical \
                and _episode_fingerprint(results) == fingerprint
            if telemetry:
                sampler = run_sampler
                seconds["sample"] = sample_s
        pairs.append({"baseline_s": seconds[False],
                      "telemetry_s": seconds[True],
                      "sample_s": seconds["sample"],
                      "sample_frac": seconds["sample"] / seconds[True]})
    ratios = [pair["telemetry_s"] / pair["baseline_s"] for pair in pairs]
    q25, median, q75 = np.percentile(ratios, [25, 50, 75])
    record = {
        "pairs": pairs,
        "overhead_frac": float(median) - 1.0,
        "overhead_iqr": float(q75 - q25),
        "sample_frac_median": float(np.median(
            [pair["sample_frac"] for pair in pairs])),
        "samples": sampler.samples,
        "metrics_identical": bool(identical),
    }
    if telemetry_path is not None:
        record["series_path"] = sampler.save(telemetry_path)
    return record


def _slo_overload(workload, config: ServingBenchConfig,
                  incident_root=None) -> dict:
    """Monitored overload: breach must fire, bundle must round-trip.

    Replays the undersized-queue ladder with a per-tick
    :class:`~repro.obs.TelemetrySampler` + :class:`~repro.obs.SloMonitor`
    and a :class:`~repro.obs.FlightRecorder` attached to the global
    tracer (retention off, so memory stays bounded).  Shedding is
    deterministic, so the shed-rate rule breaches on every run — at
    full scale *and* in the tiny CI smoke — dumping an incident bundle
    that is then loaded back to prove the Perfetto trace and event
    JSONL round-trip.
    """
    if incident_root is None:
        incident_root = tempfile.mkdtemp(prefix="repro-slo-incidents-")
    events = EventLog()
    recorder = FlightRecorder(directory=incident_root)
    recorder.attach(tracer=TRACER, events=events)
    rules = [SloRule.parse(spec, name=name)
             for name, spec in SLO_OVERLOAD_RULES]
    PERF.reset().enable()
    try:
        max_queue = max(2, config.num_rooms // 2)
        with SessionEngine(max_batch=config.num_rooms, max_queue=max_queue,
                           degrade_at=max(1, max_queue // 2),
                           events=events) as engine:
            sampler = TelemetrySampler(engine)
            monitor = SloMonitor(rules, events=events, recorder=recorder)
            for index, (room, target) in enumerate(workload):
                engine.open_session(AfterProblem(room=room, target=target),
                                    NearestRecommender(),
                                    session_id=f"slo-{index:03d}")
            for tick in range(config.ticks):
                for index, (room, _) in enumerate(workload):
                    engine.submit(f"slo-{index:03d}",
                                  room.trajectory.positions[tick])
                if (tick + 1) % config.overload_pump_interval == 0:
                    engine.pump()
                sampler.sample(now=float(tick))
                monitor.evaluate(sampler, now=float(tick))
            engine.drain()
            sampler.sample(now=float(config.ticks))
            monitor.evaluate(sampler, now=float(config.ticks))
    finally:
        PERF.disable()
        recorder.detach()
    breaches = [record for record in events.records
                if record["type"] == "slo.breach"]
    recovers = [record for record in events.records
                if record["type"] == "slo.recover"]
    bundle = recorder.dumps[0] if recorder.dumps else None
    bundle_spans = bundle_events = 0
    loadable = False
    if bundle is not None:
        incident = load_incident(bundle)
        bundle_spans = len(incident["spans"])
        bundle_events = len(incident["events"])
        loadable = (incident["manifest"]["reason"].startswith("slo-")
                    and bundle_spans > 0 and bundle_events > 0)
    return {
        "rules": [rule.describe() for rule in rules],
        "breach_events": len(breaches),
        "recover_events": len(recovers),
        "breached_rules": sorted({record["rule"] for record in breaches}),
        "bundle": None if bundle is None else str(bundle),
        "bundle_spans": bundle_spans,
        "bundle_events": bundle_events,
        "bundle_loadable": bool(loadable),
    }


def _fleet_stream(workload, config: ServingBenchConfig, num_shards: int,
                  migrate_one: bool = False) -> tuple:
    """Steady-state fleet run: one tick per room per pump, N shards.

    Mirrors :func:`_engine_stream` — sessions open before the clock
    starts, every tick ships one frame per room (pipelined per shard)
    and pumps all shards concurrently.  With ``migrate_one`` the first
    room is live-migrated to the next shard after the first tick, so
    the timed path includes one suspend/ship/resume cycle and the
    result parity check covers it.
    """
    budget = config.num_rooms * config.ticks
    with Fleet(num_shards, max_batch=config.num_rooms,
               max_queue=budget * num_shards) as fleet:
        ids = [fleet.open_session(AfterProblem(room=room, target=target),
                                  NearestRecommender(),
                                  session_id=f"fleet-{index:03d}")
               for index, (room, target) in enumerate(workload)]
        migrations = 0
        start = time.perf_counter()
        for tick in range(config.ticks):
            fleet.submit_many(
                (session_id, room.trajectory.positions[tick])
                for session_id, (room, _) in zip(ids, workload))
            fleet.pump()
            if migrate_one and migrations == 0 and num_shards > 1:
                target_shard = (fleet.shard_of(ids[0]) + 1) % num_shards
                fleet.migrate(ids[0], target_shard)
                migrations += 1
        fleet.drain()
        elapsed = time.perf_counter() - start
        results = [fleet.close_session(session_id) for session_id in ids]
    return elapsed, results, migrations


def _fleet_scaling(workload, config: ServingBenchConfig,
                   fingerprint) -> dict | None:
    """The multi-shard scaling table (None where fork is unavailable).

    Reports aggregate rooms/sec and rooms/sec-per-core at each shard
    count, the 2-vs-1 scaling factor, and whether every sharded run —
    including the one with a forced live migration — reproduced the
    serial fingerprint exactly.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    repeats = min(config.repeats, 2)
    shards: dict = {}
    identical = True
    migrations = 0
    for num_shards in FLEET_SHARD_COUNTS:
        best = np.inf
        for _ in range(repeats):
            elapsed, results, moved = _fleet_stream(
                workload, config, num_shards,
                migrate_one=num_shards > 1)
            best = min(best, elapsed)
            migrations += moved
            identical = identical and (
                _episode_fingerprint(results) == fingerprint)
        rooms_per_s = config.num_rooms / best
        shards[str(num_shards)] = {
            "stream_s": best,
            "rooms_per_s": rooms_per_s,
            "rooms_per_s_per_core": rooms_per_s / num_shards,
        }
    return {
        "shards": shards,
        "scaling_2_vs_1": (shards["2"]["rooms_per_s"]
                           / shards["1"]["rooms_per_s"]),
        "available_cores": _available_cores(),
        "migrations": migrations,
        "metrics_identical": bool(identical),
    }


def _scenario_run(name: str, config: ServingBenchConfig) -> dict:
    """One catalogue scenario end to end, with SLO replay.

    Runs the canned spec (shortened horizon in the tiny smoke) through
    :func:`~repro.serving.run_scenario` on a two-shard fleet
    (in-process engine where fork is unavailable).  The schedule hash
    pins that the traffic itself is deterministic, so cross-run
    shed/latency comparisons are apples to apples.
    """
    overrides = {"ticks": 8} if config.is_tiny else {}
    spec = canned_spec(name, **overrides)
    use_fleet = "fork" in multiprocessing.get_all_start_methods()
    run = run_scenario(spec, 2 if use_fleet else 0)
    tickets = [ticket for per_session in run.outcome.tickets.values()
               for ticket in per_session]
    shed = sum(ticket.status == "shed" for ticket in tickets)
    p99 = max((telemetry.aggregate("serving.step_latency_s", "p99",
                                   start=0.0, end=float(spec.ticks))
               for telemetry in run.shards.values()),
              default=float("nan"))
    return {
        "ticks": spec.ticks,
        "stack": "fleet-2" if use_fleet else "engine",
        "schedule_hash": run.plan.schedule_hash(),
        "events": len(run.plan.events),
        "sessions": len(run.outcome.results),
        "submitted": len(tickets),
        "shed_rate": shed / len(tickets) if tickets else 0.0,
        "latency_p99_s": float(p99),
        "slo": {
            "ok": run.report.ok,
            "breaches": len(run.report.breach_events),
            "rules": list(spec.slo),
        },
    }


def _episode_fingerprint(results) -> list:
    """Order-sensitive exact fingerprint of per-room episode results."""
    return [(episode.after_utility, episode.preference, episode.presence,
             episode.occlusion_rate, episode.recommendations.tobytes())
            for episode in results]


def run_serving_bench(config: ServingBenchConfig | None = None,
                      trace_path=None, telemetry_path=None,
                      incident_root=None) -> dict:
    """Run the serving comparison and return the bench record.

    ``trace_path`` (optional) names a file for the Perfetto trace of the
    instrumented engine pass; ``telemetry_path`` one for the sampled
    per-shard series; ``incident_root`` a parent directory for the SLO
    run's flight-recorder bundles (a temp directory when omitted).
    """
    config = config or ServingBenchConfig.from_env()
    workload = _generate_rooms(config)

    serial_s = np.inf
    engine_s = np.inf
    serial_results = engine_results = None
    latencies: list = []
    for _ in range(config.repeats):
        elapsed, serial_results = _serial_stream(workload, config)
        serial_s = min(serial_s, elapsed)
        elapsed, engine_results, run_latencies = _engine_stream(workload,
                                                                config)
        if elapsed < engine_s:
            engine_s, latencies = elapsed, run_latencies

    fingerprint = _episode_fingerprint(serial_results)
    identical = _episode_fingerprint(engine_results) == fingerprint

    # Separate untimed pass for the instrumentation breakdown and the
    # trace, so the timed runs pay no collection overhead.
    PERF.reset().enable()
    TRACER.reset().enable()
    _engine_stream(workload, config)
    instrumentation = PERF.report()
    PERF.disable()
    TRACER.disable()
    if trace_path is not None:
        write_chrome_trace(trace_path, TRACER.spans,
                           process_labels={os.getpid(): "serving-engine"})

    overload = _overload_replay(workload, config)
    slo = _slo_overload(workload, config, incident_root)
    telemetry = _telemetry_overhead(workload, config, fingerprint,
                                    telemetry_path)
    fleet = _fleet_scaling(workload, config, fingerprint)
    scenarios = {name: _scenario_run(name, config)
                 for name in BENCH_SCENARIOS}

    steps = config.num_rooms * config.ticks
    quantiles = np.percentile(latencies, [50, 99]) if latencies else [0, 0]
    return {
        "config": asdict(config),
        "timings_s": {
            "serial_stream": serial_s,
            "engine_stream": engine_s,
        },
        "throughput": {
            "serial_rooms_per_s": config.num_rooms / serial_s,
            "engine_rooms_per_s": config.num_rooms / engine_s,
            "serial_steps_per_s": steps / serial_s,
            "engine_steps_per_s": steps / engine_s,
        },
        "latency_s": {
            "p50": float(quantiles[0]),
            "p99": float(quantiles[1]),
            "max": float(max(latencies)) if latencies else 0.0,
        },
        "speedup": {
            "engine_vs_serial": serial_s / engine_s,
        },
        "overload": overload,
        "slo": slo,
        "telemetry": telemetry,
        "fleet": fleet,
        "scenarios": scenarios,
        "metrics_identical": bool(identical),
        "instrumentation": instrumentation,
    }


def main() -> dict:
    config = ServingBenchConfig.from_env()
    run_dir = default_run_dir()
    run_dir.mkdir(parents=True, exist_ok=True)
    trace_path = run_dir / "trace_serving.json"
    telemetry_path = run_dir / "telemetry_serving.json"
    record = run_serving_bench(config, trace_path=trace_path,
                               telemetry_path=telemetry_path,
                               incident_root=run_dir / "incidents")
    # The record names run artifacts relative to the run directory.
    slo = record["slo"]
    if slo["bundle"] is not None:
        slo["bundle"] = run_relative(slo["bundle"], run_dir)
    record["telemetry"]["series_path"] = run_relative(
        record["telemetry"]["series_path"], run_dir)
    path = result_path(RECORD_NAME, config.is_tiny)
    path.write_text(json.dumps(record, indent=2) + "\n")

    speedup = record["speedup"]["engine_vs_serial"]
    print(f"session serving @ {config.num_rooms} rooms x "
          f"N={config.num_users} users, {config.ticks} ticks")
    for name, seconds in record["timings_s"].items():
        print(f"  {name:28s} {seconds * 1000.0:9.1f} ms")
    print(f"  rooms/sec (serial)           "
          f"{record['throughput']['serial_rooms_per_s']:9.1f}")
    print(f"  rooms/sec (engine)           "
          f"{record['throughput']['engine_rooms_per_s']:9.1f}")
    print(f"  step latency p50 / p99       "
          f"{record['latency_s']['p50'] * 1000.0:6.1f} / "
          f"{record['latency_s']['p99'] * 1000.0:6.1f} ms")
    print(f"  overload shed rate           "
          f"{record['overload']['shed_rate']:9.1%}")
    print(f"  speedup (engine vs serial)   {speedup:9.2f}x")
    print(f"  slo breaches (forced)        {slo['breach_events']:9d}  "
          f"({', '.join(slo['breached_rules'])})")
    print(f"  incident bundle              {slo['bundle']}  "
          f"({slo['bundle_spans']} spans, {slo['bundle_events']} events, "
          f"loadable={slo['bundle_loadable']})")
    telemetry = record["telemetry"]
    print(f"  telemetry overhead (median)  "
          f"{telemetry['overhead_frac']:9.2%}  "
          f"(IQR {telemetry['overhead_iqr']:.2%} over "
          f"{len(telemetry['pairs'])} pairs, "
          f"{telemetry['samples']} samples/run)")
    print(f"  sample() share of sampler-on "
          f"{telemetry['sample_frac_median']:9.2%}  (median over pairs)")
    fleet = record["fleet"]
    if fleet is not None:
        for shards, row in fleet["shards"].items():
            print(f"  fleet rooms/sec @ {shards} shard(s) "
                  f"{row['rooms_per_s']:9.1f}  "
                  f"({row['rooms_per_s_per_core']:.1f}/core)")
        print(f"  fleet scaling (2 vs 1)       "
              f"{fleet['scaling_2_vs_1']:9.2f}x  "
              f"({fleet['migrations']} live migrations, "
              f"{fleet['available_cores']} cores)")
    for name, row in record["scenarios"].items():
        print(f"  scenario {name:20s} {row['events']:3d} events, "
              f"{row['sessions']} sessions, shed "
              f"{row['shed_rate']:.1%}, p99 "
              f"{row['latency_p99_s'] * 1000.0:.1f} ms, "
              f"slo_ok={row['slo']['ok']} ({row['stack']})")
    print(f"  metrics identical: {record['metrics_identical']}")
    print(f"wrote {path}")
    print(f"wrote {trace_path} (open at ui.perfetto.dev)")
    print(f"wrote {telemetry_path} (python -m repro.obs top/slo)")

    if not record["metrics_identical"]:
        raise SystemExit("streamed metrics diverge from serial stepping")
    if not record["overload"]["events_consistent"]:
        raise SystemExit("shed/degrade events disagree with step records")
    if slo["breach_events"] < 1 or "shed-rate" not in slo["breached_rules"]:
        raise SystemExit("forced overload did not breach the shed-rate "
                         "SLO — admission control or the monitor broke")
    if not slo["bundle_loadable"]:
        raise SystemExit("flight-recorder incident bundle missing or not "
                         "loadable")
    if not telemetry["metrics_identical"]:
        raise SystemExit("telemetry-on metrics diverge from serial "
                         "stepping")
    if not config.is_tiny \
            and telemetry["overhead_frac"] > TELEMETRY_OVERHEAD_CEILING:
        raise SystemExit(
            f"median telemetry overhead {telemetry['overhead_frac']:.2%} "
            f"above the {TELEMETRY_OVERHEAD_CEILING:.0%} ceiling")
    if not config.is_tiny and speedup < SPEEDUP_FLOOR:
        raise SystemExit(f"speedup {speedup:.2f}x below the "
                         f"{SPEEDUP_FLOOR}x floor")
    if fleet is not None:
        if not fleet["metrics_identical"]:
            raise SystemExit("fleet metrics diverge from serial stepping")
        if not config.is_tiny and fleet["available_cores"] >= 2 \
                and fleet["scaling_2_vs_1"] < FLEET_SCALING_FLOOR:
            raise SystemExit(
                f"fleet scaling {fleet['scaling_2_vs_1']:.2f}x below "
                f"the {FLEET_SCALING_FLOOR}x floor at 2 shards")
    if not config.is_tiny and _available_cores() >= 2:
        failing = sorted(name for name, row in record["scenarios"].items()
                         if not row["slo"]["ok"])
        if failing:
            raise SystemExit(
                f"scenario(s) {failing} breached their declared SLOs")
    return record


if __name__ == "__main__":
    main()
