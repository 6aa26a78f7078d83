"""POSHGNN training throughput and repeat determinism.

Wraps :mod:`benchmarks.perf_training` as a benchmark test: every repeat
must reproduce the same loss history exactly.  ``REPRO_PERF_TINY=1``
shrinks it to a CI smoke run.
"""

from perf_training import TrainingBenchConfig, run_training_bench


def test_training_throughput_and_determinism(benchmark):
    config = TrainingBenchConfig.from_env()
    record = benchmark.pedantic(run_training_bench, args=(config,),
                                rounds=1, iterations=1)

    print()
    for name, seconds in record["timings_s"].items():
        print(f"  {name:24s} {seconds * 1000.0:9.1f} ms")

    assert record["parity"]["repeat_deterministic"]
