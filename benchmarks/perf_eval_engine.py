"""Perf harness for multi-target evaluation.

Times two ways of evaluating one recommender for many targets of a room
— per-target :func:`~repro.serving.stream_episode`, the serving step
path (the same batched kernels, one step per call at B = 1), and
:func:`~repro.core.evaluation.evaluate_targets` (every target's
occlusion graphs in one call, cached episode frames, one visibility
resolution per episode), cold and with warm caches — asserts that all
produce identical metrics, and writes the measurements to
``BENCH_eval_engine.json``.  Both sides run the same kernels, so the
ratio measures what batching the rows saves, not a cheaper algorithm.

Run directly::

    PYTHONPATH=src python benchmarks/perf_eval_engine.py

or as a benchmark test::

    PYTHONPATH=src pytest benchmarks/test_eval_engine.py

Scaled to N = 128 users, T = 50 steps, 16 targets by default (the
acceptance scenario); ``REPRO_PERF_TINY=1`` shrinks it to a
seconds-long CI smoke run that skips the speedup floor and writes its
record under the run directory, so it never overwrites the committed
full-scale record at the repo root.

Alongside the timings the harness records an *instrumented* pass with
the full observability stack enabled and writes ``trace.json`` — a
Chrome/Perfetto ``trace_event`` file with the nested per-episode phases
(frame build, recommend, visibility, utility) — openable directly at
``ui.perfetto.dev``.  The trace lands under ``REPRO_RUN_DIR`` when that
is set (next to the run's manifests), else in the repo's gitignored
``runs/`` directory.  Gate a fresh run against the committed baseline
with::

    python -m repro.obs gate --baseline BENCH_eval_engine.json \
        --current /tmp/new.json
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from bench_paths import default_run_dir, result_path
from repro.bench.experiments import room_config_for
from repro.bench import BenchConfig
from repro.core import AfterProblem
from repro.core.evaluation import AggregateResult, evaluate_targets
from repro.datasets import generate_room
from repro.models import NearestRecommender
from repro.obs import PERF, TRACER, write_chrome_trace
from repro.serving import stream_episode

__all__ = ["EngineBenchConfig", "run_eval_engine_bench", "main"]

RECORD_NAME = "BENCH_eval_engine.json"

#: Acceptance floor: ``evaluate_targets`` must beat per-target
#: ``stream_episode`` by at least this factor at the default scale.
SPEEDUP_FLOOR = 3.0


@dataclass(frozen=True)
class EngineBenchConfig:
    """Scale knobs for the evaluation-engine benchmark."""

    num_users: int = 128
    num_steps: int = 50
    num_targets: int = 16
    max_render: int = 8
    repeats: int = 5
    dataset: str = "smm"
    seed: int = 0

    @classmethod
    def from_env(cls) -> "EngineBenchConfig":
        if os.environ.get("REPRO_PERF_TINY"):
            return cls(num_users=24, num_steps=8, num_targets=4, repeats=1)
        return cls()

    @property
    def is_tiny(self) -> bool:
        return self.num_users < 64


def _fresh_room(config: EngineBenchConfig):
    """A cold room: no DOGs or frames cached yet."""
    bench = BenchConfig(num_users=config.num_users,
                        num_steps=config.num_steps, seed=config.seed)
    return generate_room(config.dataset,
                         room_config_for(config.dataset, bench),
                         seed=config.seed)


def _episode_fingerprint(result) -> list:
    """Order-sensitive exact fingerprint of an AggregateResult."""
    return [(e.after_utility, e.preference, e.presence, e.occlusion_rate,
             e.recommendations.tobytes()) for e in result.episodes]


def _stream_targets(room, recommender, targets, *, max_render: int):
    """Each target streamed frame by frame through a serial session."""
    return AggregateResult.from_episodes([
        stream_episode(AfterProblem(room, target, max_render=max_render),
                       recommender)
        for target in targets])


def _best_of(config: EngineBenchConfig, targets, evaluate, *,
             warm: bool = False):
    """Best-of-``repeats`` wall time plus the run's aggregate result.

    Every repeat starts from a freshly generated room (cold caches)
    unless ``warm``, which pre-fills the caches once and times only the
    evaluation — the "second recommender on the same room" case.
    """
    best = np.inf
    result = None
    for _ in range(config.repeats):
        room = _fresh_room(config)
        recommender = NearestRecommender()
        if warm:
            evaluate_targets(room, recommender, targets,
                             max_render=config.max_render)
        start = time.perf_counter()
        result = evaluate(room, recommender, targets,
                          max_render=config.max_render)
        best = min(best, time.perf_counter() - start)
    return best, result


def run_eval_engine_bench(config: EngineBenchConfig | None = None,
                          trace_path=None) -> dict:
    """Run every evaluation variant and return the comparison record.

    ``trace_path`` (optional) names a file for the Perfetto trace of
    the instrumented pass — nested spans down to per-episode phases.
    """
    config = config or EngineBenchConfig.from_env()
    rng = np.random.default_rng(config.seed + 1)
    targets = sorted(int(t) for t in
                     _fresh_room(config).sample_targets(config.num_targets,
                                                        rng))

    stream_s, streamed = _best_of(config, targets, _stream_targets)
    batched_s, batched = _best_of(config, targets, evaluate_targets)

    # Separate untimed pass for the instrumentation breakdown and the
    # trace, so the timed batched run pays no collection overhead.
    PERF.reset().enable()
    TRACER.reset().enable()
    evaluate_targets(_fresh_room(config), NearestRecommender(), targets,
                     max_render=config.max_render)
    instrumentation = PERF.report()
    PERF.disable()
    TRACER.disable()
    if trace_path is not None:
        write_chrome_trace(trace_path, TRACER.spans,
                           process_labels={os.getpid(): "eval-engine"})

    warm_s, warm = _best_of(config, targets, evaluate_targets, warm=True)

    fingerprint = _episode_fingerprint(streamed)
    identical = all(_episode_fingerprint(r) == fingerprint
                    for r in (batched, warm))

    return {
        "config": asdict(config),
        "timings_s": {
            "stream_serial": stream_s,
            "batched": batched_s,
            "batched_warm_caches": warm_s,
        },
        "speedup": {
            "batched_vs_stream": stream_s / batched_s,
            "warm_vs_stream": stream_s / warm_s,
        },
        "metrics_identical": bool(identical),
        "instrumentation": instrumentation,
    }


def main() -> dict:
    config = EngineBenchConfig.from_env()
    trace_path = default_run_dir() / "trace.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    record = run_eval_engine_bench(config, trace_path=trace_path)
    path = result_path(RECORD_NAME, config.is_tiny)
    path.write_text(json.dumps(record, indent=2) + "\n")

    timings = record["timings_s"]
    speedup = record["speedup"]["batched_vs_stream"]
    print(f"evaluation engine @ N={config.num_users} T={config.num_steps} "
          f"targets={config.num_targets}")
    for name, seconds in timings.items():
        print(f"  {name:28s} {seconds * 1000.0:9.1f} ms")
    print(f"  speedup (batched cold)       {speedup:9.2f}x")
    print(f"  speedup (batched warm)       "
          f"{record['speedup']['warm_vs_stream']:9.2f}x")
    print(f"  metrics identical: {record['metrics_identical']}")
    print(f"wrote {path}")
    print(f"wrote {trace_path} (open at ui.perfetto.dev)")

    if not record["metrics_identical"]:
        raise SystemExit("evaluation paths disagree on metrics")
    if not config.is_tiny and speedup < SPEEDUP_FLOOR:
        raise SystemExit(f"speedup {speedup:.2f}x below the "
                         f"{SPEEDUP_FLOOR}x floor")
    return record


if __name__ == "__main__":
    main()
