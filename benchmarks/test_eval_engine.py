"""Multi-target ``evaluate_targets`` vs per-target ``stream_episode``.

Wraps :mod:`benchmarks.perf_eval_engine` as a benchmark test:
``evaluate_targets`` must produce bit-identical metrics to the streamed
per-step walk and, at the default N = 128 / T = 50 / 16-target scale,
beat it by the acceptance floor.  ``REPRO_PERF_TINY=1`` shrinks it to a
CI smoke run that checks equivalence only.
"""

from perf_eval_engine import SPEEDUP_FLOOR, EngineBenchConfig, \
    run_eval_engine_bench


def test_eval_engine_speedup_and_equivalence(benchmark):
    config = EngineBenchConfig.from_env()
    record = benchmark.pedantic(run_eval_engine_bench, args=(config,),
                                rounds=1, iterations=1)

    print()
    for name, seconds in record["timings_s"].items():
        print(f"  {name:28s} {seconds * 1000.0:9.1f} ms")
    print(f"  speedup (batched cold)       "
          f"{record['speedup']['batched_vs_stream']:9.2f}x")

    assert record["metrics_identical"]
    if not config.is_tiny:
        assert record["speedup"]["batched_vs_stream"] >= SPEEDUP_FLOOR
