"""Batched multi-room BPTT training vs the serial per-episode loop.

Wraps :mod:`benchmarks.perf_training` as a benchmark test: the lr=0
losses must match the serial loop, every mode must repeat its losses
exactly, and at the default scale batched training must beat serial by
the acceptance floor.  ``REPRO_PERF_TINY=1``
shrinks it to a CI smoke run that checks the parity contracts only.
"""

from perf_training import (TRAINING_SPEEDUP_FLOOR, TrainingBenchConfig,
                           run_training_bench)


def test_training_speedup_and_parity(benchmark):
    config = TrainingBenchConfig.from_env()
    record = benchmark.pedantic(run_training_bench, args=(config,),
                                rounds=1, iterations=1)

    print()
    for name, seconds in record["timings_s"].items():
        print(f"  {name:24s} {seconds * 1000.0:9.1f} ms")
    print(f"  speedup (batched vs serial)  "
          f"{record['speedup']['batched_vs_serial']:9.2f}x")

    assert record["parity"]["lr0_serial_vs_batched_allclose"]
    assert record["parity"]["repeat_deterministic"]
    if not config.is_tiny:
        assert record["speedup"]["batched_vs_serial"] \
            >= TRAINING_SPEEDUP_FLOOR
