"""The benchmark's own tests, at a tiny scale.

Run from the repository root::

    python3 -m pytest -q perfbench/tests

Every workload must emit every metric named in ``BENCHMARK.json`` with
its unit, and every output check must trip on a deliberately perturbed
output.
"""

import dataclasses
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
from harness import Measured, TraceSwitch, Unit, end_to_end, run_workload
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "serve_steady": {"rooms": 2, "targets": 2, "users": 12, "steps": 3,
                     "period_s": 0.02, "server_tick_s": 0.005,
                     "check_sessions": 2},
    "serve_churn": {"period_s": 0.01, "warmup_ticks": 2, "spec": {
        "ticks": 10, "universe_users": 30, "room_users": [3, 6],
        "rooms_at_start": 3, "max_rooms": 4,
        "arrival": {"kind": "poisson", "rate": 0.3},
        "churn": {"join_rate": 0.5, "leave_rate": 0.5,
                  "handoff_rate": 0.3},
        "lifecycle": {"merge_at": [3], "split_at": [6],
                      "close_after": 8}}},
    "eval_cold": {"rooms": 1, "users": 12, "steps": 3, "targets": 2},
    "train_fit": {"users": 12, "steps": 6, "epochs": 3},
}
SECONDS = {"serve_steady": 0.6, "serve_churn": 0.2, "eval_cold": 0.6,
           "train_fit": 2.0}


def _tiny(name: str):
    workload = WORKLOADS[name](3, TINY[name])
    workload.setup()
    workload.run(SECONDS[name], TraceSwitch(None, 0.0, 0.0))
    return workload


def _flip_bit(episode) -> None:
    episode.recommendations = episode.recommendations.copy()
    episode.recommendations[-1, 0] = ~episode.recommendations[-1, 0]


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"]
                                       for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace):
    result = run_workload(WORKLOADS[name], seed=3, seconds=SECONDS[name],
                          trace=trace, scale=TINY[name], root=ROOT,
                          out=io.StringIO())
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        key: value["unit"] for key, value in result["metrics"].items()}
    assert all(math.isfinite(value["value"])
               for value in result["metrics"].values())


def test_serve_steady_checks_trip():
    workload = _tiny("serve_steady")
    assert workload.check() == []
    for result in workload.first_results.values():
        _flip_bit(result)
    assert any("stream_episode" in m for m in workload.check())

    workload = _tiny("serve_steady")
    workload.ledger.processed -= 1          # one dropped ticket
    assert any("submitted" in m for m in workload.check())


def test_serve_churn_checks_trip():
    workload = _tiny("serve_churn")
    assert workload.check() == []
    results = workload.cycles[0].results
    _flip_bit(results[sorted(results)[0]])
    assert any("episode outputs differ" in m for m in workload.check())

    workload = _tiny("serve_churn")
    workload.ledger.submitted += 1
    assert any("submitted" in m for m in workload.check())


def test_eval_cold_checks_trip():
    workload = _tiny("eval_cold")
    assert workload.check() == []
    key = next(iter(workload.digests))
    workload.digests[key].append(["perturbed"])
    assert any("repetitions differ" in m for m in workload.check())

    workload = _tiny("eval_cold")
    for result in workload.first.values():
        for episode in result.episodes:
            _flip_bit(episode)
    assert any("stream_episode" in m for m in workload.check())


def test_train_fit_checks_trip():
    workload = _tiny("train_fit")
    assert workload.check() == []
    workload.histories[0] = list(workload.histories[0])
    workload.histories[0][-1] = float("nan")
    assert any("non-finite" in m for m in workload.check())

    workload.histories[0][-1] = workload.histories[0][0] + 1.0
    assert any("not below" in m for m in workload.check())

    workload = _tiny("train_fit")
    workload.states.append("perturbed")
    assert any("repetitions differ" in m for m in workload.check())


def test_closed_loop_metrics_use_fastest_repetitions():
    units = [Unit(0.0, 1.0, 0.2, 10, kind="a"),
             Unit(1.0, 2.0, 0.1, 10, kind="a"),
             Unit(2.0, 3.0, 0.4, 10, kind="b"),
             Unit(3.0, 4.0, 0.15, 10, kind="a"),
             Unit(4.0, 5.0, 0.3, 10, kind="b"),
             Unit(5.0, 6.0, 0.1, 0, kind="tail"),
             Unit(6.0, 7.0, 0.05, 0, kind="tail")]
    measured = Measured(latencies_ms=[200.0, 100.0, 400.0, 150.0, 300.0],
                        slo_ms=250.0, attempted=5, missed=0, wall_s=7.0,
                        units=units, closed_loop=True)
    metrics = end_to_end(measured, 1.0)
    # Three "a" units at 0.1 s, two "b" at 0.3 s, two tails at 0.05 s.
    assert metrics["capacity_steps_per_s"][0] == pytest.approx(50 / 1.0)
    assert metrics["steps_per_s"][0] == metrics["capacity_steps_per_s"][0]
    assert metrics["latency_p50_ms"][0] == pytest.approx(100.0)
    assert metrics["latency_p99_ms"][0] == pytest.approx(300.0)
    assert metrics["within_slo_frac"][0] == 0.6

    # An open loop keeps its measured latencies and wall-clock goodput.
    units.append(Unit(7.0, 8.0, 0.5, 10))
    measured = dataclasses.replace(measured, closed_loop=False)
    metrics = end_to_end(measured, 1.0)
    assert metrics["capacity_steps_per_s"][0] == pytest.approx(60 / 1.5)
    assert metrics["steps_per_s"][0] == pytest.approx(60 / 7.0)
    assert metrics["latency_p50_ms"][0] == pytest.approx(200.0)


def test_check_functions_accept_identical_outputs():
    assert checks.tickets_balance("x", 5, 4, 1) == []
    assert checks.tickets_balance("x", 5, 4, 0) != []
    assert checks.loss_history_ok("x", [3.0, 2.0, 1.0]) == []
    assert checks.digests_agree("x", {"k": ["a", "a"]}) == []
    state = {"w": np.arange(3.0)}
    assert checks.state_digest(state) == checks.state_digest(
        {"w": np.arange(3.0)})
