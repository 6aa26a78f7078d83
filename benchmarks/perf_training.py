#!/usr/bin/env python
"""Perf harness for POSHGNN training.

Times the POSHGNN trainer — truncated BPTT over one episode at a time,
one autograd graph and one optimiser step per window — on a seeded
multi-room workload, and checks that every repeat reproduces the same
loss history exactly.

Run directly::

    PYTHONPATH=src python benchmarks/perf_training.py

or as a benchmark test::

    PYTHONPATH=src pytest benchmarks/test_training.py

Timings are best-of-``repeats`` full training runs from a fresh model.
Throughput is reported as room-steps/sec — one room advancing one
timestep.  ``REPRO_PERF_TINY=1`` shrinks the workload to a seconds-long
CI smoke that writes its record under the run directory only, never
over the committed one.

Artifacts land under ``REPRO_RUN_DIR`` (falling back to the repo's
gitignored ``runs/`` directory); the committed record is
``BENCH_training.json`` at the repo root.  Gate a fresh run against it
with::

    python -m repro.obs gate --baseline BENCH_training.json \
        --current /tmp/new.json
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass

from bench_paths import default_run_dir, result_path
from repro.core import AfterProblem
from repro.datasets import RoomConfig, generate_timik_room
from repro.models import POSHGNN
from repro.models.poshgnn.trainer import POSHGNNTrainer

__all__ = ["TrainingBenchConfig", "run_training_bench", "main"]

RECORD_NAME = "BENCH_training.json"


@dataclass(frozen=True)
class TrainingBenchConfig:
    """Scale knobs for the training-throughput benchmark."""

    num_rooms: int = 8
    num_users: int = 48
    num_steps: int = 8
    epochs: int = 6
    bptt_window: int = 4
    repeats: int = 3
    lr: float = 1e-2
    seed: int = 0

    @classmethod
    def from_env(cls) -> "TrainingBenchConfig":
        if os.environ.get("REPRO_PERF_TINY"):
            return cls(num_rooms=4, num_users=12, num_steps=5, epochs=3,
                       repeats=1)
        return cls()

    @property
    def is_tiny(self) -> bool:
        return self.num_users < 32

    @property
    def room_steps(self) -> int:
        """Room-steps per full run: rooms x timesteps x epochs."""
        return self.num_rooms * (self.num_steps + 1) * self.epochs


def _problems(config: TrainingBenchConfig) -> list:
    room_config = RoomConfig(num_users=config.num_users,
                             num_steps=config.num_steps)
    rooms = [generate_timik_room(room_config, seed=config.seed + index)
             for index in range(config.num_rooms)]
    return [AfterProblem(room, 0) for room in rooms]


def _train_once(problems, config: TrainingBenchConfig) -> dict:
    """One full training run from a fresh model; returns time + history."""
    model = POSHGNN(seed=config.seed)
    trainer = POSHGNNTrainer(
        model, lr=config.lr, epochs=config.epochs,
        bptt_window=config.bptt_window, seed=config.seed)
    start = time.perf_counter()
    result = trainer.train(problems)
    elapsed = time.perf_counter() - start
    return {
        "elapsed_s": elapsed,
        "history": result["loss"],
    }


def _timed_runs(problems, config: TrainingBenchConfig) -> dict:
    """Best-of-repeats timing (history is repeat-invariant: every repeat
    starts from the same seeded model and RNG)."""
    runs = [_train_once(problems, config) for _ in range(config.repeats)]
    best = min(runs, key=lambda run: run["elapsed_s"])
    for run in runs[1:]:
        assert run["history"] == runs[0]["history"], \
            "training is nondeterministic across repeats"
    return best


def run_training_bench(config: TrainingBenchConfig | None = None) -> dict:
    config = config or TrainingBenchConfig.from_env()
    problems = _problems(config)
    best = _timed_runs(problems, config)
    # Key kept from the records that also timed a batched mode, so a
    # fresh run still gates against them.
    timings = {"serial_train": best["elapsed_s"]}
    record = {
        "config": asdict(config),
        "room_steps_per_run": config.room_steps,
        "timings_s": timings,
        "throughput": {
            "serial_room_steps_per_s":
                config.room_steps / best["elapsed_s"],
        },
        "parity": {"repeat_deterministic": True},
    }

    run_dir = default_run_dir()
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "training_bench_histories.json").write_text(
        json.dumps({"serial": best["history"]}, indent=2) + "\n")
    (run_dir / RECORD_NAME).write_text(
        json.dumps(record, indent=2) + "\n")
    return record


def main() -> dict:
    config = TrainingBenchConfig.from_env()
    print(f"training bench: {config.num_rooms} rooms x "
          f"{config.num_users} users x {config.num_steps} steps, "
          f"{config.epochs} epochs, window {config.bptt_window}"
          f"{' (tiny)' if config.is_tiny else ''}")
    record = run_training_bench(config)
    for name, seconds in record["timings_s"].items():
        steps = record["throughput"][
            f"{name.rsplit('_', 1)[0]}_room_steps_per_s"]
        print(f"  {name:22s} {seconds * 1000.0:9.1f} ms  "
              f"{steps:9.1f} room-steps/s")
    path = result_path(RECORD_NAME, config.is_tiny)
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path}")
    return record


if __name__ == "__main__":
    main()
