#!/usr/bin/env python
"""Kill-and-resume training smoke test (CI tier-2).

Proves the fault-tolerance story end to end on a tiny room:

1. train an uninterrupted POSHGNN reference run (the "gold"
   trajectory);
2. launch the same run in a **subprocess** that checkpoints every epoch
   and hard-kills itself (``os._exit``) mid-run — no atexit handlers, no
   cleanup, exactly like a pre-empted node;
3. resume from the checkpoint directory in this process and assert the
   final loss history and every model parameter are bit-identical to the
   uninterrupted run;
4. repeat the kill-and-resume for a recurrent baseline's ``fit()``
   (DCRNN multi-restart training through the same engine);
5. generate a tiny bench table twice against one run directory and
   assert the second pass **skips** the completed method (the
   ``bench: skipping fit of`` log line + a complete manifest).

Exit code 0 on success.  Usage::

    PYTHONPATH=src python benchmarks/train_resume_smoke.py

The ``--phase child*`` invocations are internal (the self-spawned runs
that get killed).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

from repro.core import AfterProblem
from repro.datasets import RoomConfig, generate_timik_room
from repro.models import DCRNNRecommender, POSHGNN
from repro.models.poshgnn.trainer import POSHGNNTrainer

NUM_USERS = 12
NUM_STEPS = 6
EPOCHS = 8
KILL_AFTER = 4
KILL_EXIT_CODE = 37

BASELINE_FIT = dict(epochs=4, restarts=2, save_every=1)
BASELINE_KILL_AFTER = 3   # epoch-end callbacks before the hard kill


def _problems():
    room = generate_timik_room(
        RoomConfig(num_users=NUM_USERS, num_steps=NUM_STEPS), seed=0)
    return [AfterProblem(room, t) for t in (0, 1)]


def _make_trainer(model, checkpoint_dir=None):
    return POSHGNNTrainer(model, epochs=EPOCHS, shuffle=True, seed=3,
                          checkpoint_dir=checkpoint_dir, save_every=1)


def run_child(checkpoint_dir: str) -> None:
    """Train with checkpoints and die abruptly mid-run."""

    def kill_switch(trainer, epoch, history):
        if epoch >= KILL_AFTER:
            os._exit(KILL_EXIT_CODE)  # simulate a hard kill / pre-emption

    model = POSHGNN(seed=0)
    trainer = _make_trainer(model, checkpoint_dir)
    trainer.on_epoch_end = kill_switch
    trainer.train(_problems())
    raise SystemExit("child was supposed to be killed mid-run")


def run_child_baseline(run_dir: str) -> None:
    """DCRNN multi-restart fit that dies abruptly mid-attempt."""
    calls = []

    def kill_switch(engine, epoch, history):
        calls.append(epoch)
        if len(calls) >= BASELINE_KILL_AFTER:
            os._exit(KILL_EXIT_CODE)

    DCRNNRecommender(seed=0).fit(_problems(), run_dir=run_dir,
                                 on_epoch_end=kill_switch, **BASELINE_FIT)
    raise SystemExit("baseline child was supposed to be killed mid-run")


def _spawn_child(phase: str, directory: str) -> int:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--phase", phase,
         "--checkpoint-dir", directory],
        env=env, timeout=600)
    return child.returncode


def _compare_states(gold_state, resumed_state, failures) -> None:
    for name in gold_state:
        if not np.array_equal(gold_state[name], resumed_state[name]):
            failures.append(f"parameter {name} not bit-identical")


def smoke_poshgnn() -> list:
    """Phases 1-3: POSHGNN trainer kill-and-resume."""
    problems = _problems()

    print(f"[1/5] uninterrupted POSHGNN reference run ({EPOCHS} epochs)")
    gold_model = POSHGNN(seed=0)
    gold = _make_trainer(gold_model).train(problems)

    failures = []
    with tempfile.TemporaryDirectory(prefix="resume-smoke-") as directory:
        print(f"[2/5] checkpointing run, hard-killed after epoch "
              f"{KILL_AFTER} (subprocess)")
        returncode = _spawn_child("child", directory)
        if returncode != KILL_EXIT_CODE:
            return [f"child exited {returncode}, expected "
                    f"kill code {KILL_EXIT_CODE}"]
        saved = sorted(name for name in os.listdir(directory)
                       if name.endswith(".npz"))
        print(f"      child left checkpoints: {saved}")
        if not saved:
            return ["killed run left no checkpoints"]

        print(f"[3/5] resuming from {directory} to epoch {EPOCHS}")
        resumed_model = POSHGNN(seed=0)
        resumed = _make_trainer(resumed_model, directory).train(
            problems, resume_from=directory)

        manifest_path = os.path.join(directory, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        if manifest["resumed_from"] is None:
            failures.append("manifest does not record the resume")

    if gold["loss"] != resumed["loss"]:
        failures.append(f"loss history diverged:\n  gold    "
                        f"{gold['loss']}\n  resumed {resumed['loss']}")
    if gold["best_loss"] != resumed["best_loss"]:
        failures.append("best_loss diverged")
    _compare_states(gold_model.state_dict(), resumed_model.state_dict(),
                    failures)
    if not failures:
        print(f"      OK: bit-identical "
              f"({len(gold_model.state_dict())} parameter tensors, "
              f"{len(gold['loss'])} epochs)")
    return failures


def smoke_baseline() -> list:
    """Phase 4: DCRNN fit() kill-and-resume through the engine."""
    problems = _problems()
    failures = []
    with tempfile.TemporaryDirectory(prefix="resume-smoke-dcrnn-") as root:
        print(f"[4/5] DCRNN fit: uninterrupted reference, then "
              f"hard-killed subprocess + resume")
        gold_model = DCRNNRecommender(seed=0)
        gold = gold_model.fit(problems, run_dir=os.path.join(root, "gold"),
                              **BASELINE_FIT)

        run_dir = os.path.join(root, "run")
        returncode = _spawn_child("child-baseline", run_dir)
        if returncode != KILL_EXIT_CODE:
            return [f"baseline child exited {returncode}, expected "
                    f"kill code {KILL_EXIT_CODE}"]
        if not os.path.isdir(run_dir):
            return ["killed baseline fit left no run directory"]

        resumed_model = DCRNNRecommender(seed=0)
        resumed = resumed_model.fit(problems, run_dir=run_dir,
                                    resume_from=run_dir, **BASELINE_FIT)

        if gold["loss"] != resumed["loss"]:
            failures.append("baseline loss history diverged")
        if gold["train_utility"] != resumed["train_utility"]:
            failures.append("baseline train_utility diverged")
        gold_params = {name: parameter.data
                       for name, parameter in gold_model.named_parameters()}
        resumed_params = {
            name: parameter.data
            for name, parameter in resumed_model.named_parameters()}
        _compare_states(gold_params, resumed_params, failures)
        if not failures:
            print(f"      OK: resumed DCRNN fit bit-identical "
                  f"({len(gold_params)} parameter tensors)")
    return failures


def smoke_bench_resume() -> list:
    """Phase 5: a re-generated bench table skips completed methods."""
    from repro.bench import BenchConfig, TRAIN_ALPHA0, prepare_room
    from repro.bench.experiments import _bench_fit_complete, \
        _fit_and_evaluate
    from repro.bench.methods import method_slug

    failures = []
    with tempfile.TemporaryDirectory(prefix="resume-smoke-bench-") as root:
        print("[5/5] tiny bench table twice against one REPRO_RUN_DIR; "
              "second pass must skip the completed fit")
        config = BenchConfig(num_users=NUM_USERS, num_steps=5,
                             train_targets=1, eval_targets=2,
                             train_epochs=2, run_dir=root)
        room, train_targets, eval_targets = prepare_room("timik", config)
        first = _fit_and_evaluate(room, {"DCRNN": DCRNNRecommender(seed=0)},
                                  train_targets, eval_targets, config,
                                  TRAIN_ALPHA0["timik"])

        manifest_path = os.path.join(
            root, f"bench_{method_slug('DCRNN')}.json")
        if not _bench_fit_complete(manifest_path):
            failures.append("first bench pass left no complete manifest")

        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            second = _fit_and_evaluate(
                room, {"DCRNN": DCRNNRecommender(seed=0)},
                train_targets, eval_targets, config, TRAIN_ALPHA0["timik"])
        out = captured.getvalue()
        if "bench: skipping fit of DCRNN" not in out:
            failures.append("second bench pass did not log the skip line")
        if second["DCRNN"].after_utility != first["DCRNN"].after_utility:
            failures.append("skipped re-run changed the table metrics")
        if not failures:
            print("      OK: completed method skipped, metrics identical")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--phase", default="driver",
                        choices=["driver", "child", "child-baseline"])
    parser.add_argument("--checkpoint-dir", default=None)
    args = parser.parse_args()

    if args.phase == "child":
        run_child(args.checkpoint_dir)
        return 1  # unreachable
    if args.phase == "child-baseline":
        run_child_baseline(args.checkpoint_dir)
        return 1  # unreachable

    failures = smoke_poshgnn()
    failures += smoke_baseline()
    failures += smoke_bench_resume()

    if failures:
        print("FAIL:")
        for failure in failures:
            print("  " + failure)
        return 1
    print("OK: POSHGNN + DCRNN kill-and-resume bit-identical; "
          "bench table resume skips completed fits")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
