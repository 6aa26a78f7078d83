"""The fault-tolerant training engine.

Every gradient trainer in the repo — POSHGNN and the DCRNN/T-GCN
baselines trained with the POSHGNN loss for the paper's fair-comparison
protocol — runs one loop: epochs over episodes, non-finite losses
rolled back with a learning-rate backoff, periodic checkpoints with
last-k + best retention, best-model selection over the loss history, a
run manifest and a JSONL event trail.  This module owns that loop once.

* :class:`TrainingEngine` — the loop itself.  It owns the model, its
  Adam optimiser, the seeded shuffling RNG and the resolved loss alpha,
  and reads them directly for rollback, checkpointing, learning-rate
  backoff and best-model selection.  A subclass supplies
  :meth:`~TrainingEngine.train_episode` (one truncated-BPTT episode),
  :meth:`~TrainingEngine.resolve_alpha` and
  :meth:`~TrainingEngine.manifest_config`; ``POSHGNNTrainer`` is that
  subclass for every model.  With ``checkpoint_dir`` set, the run
  directory holds the :class:`~repro.training.CheckpointManager`
  archives, ``manifest.json`` and ``events.jsonl``, and
  ``train(problems, resume_from=...)`` restarts a killed run
  **bit-identically** to one that was never interrupted.
* :func:`run_restarts` / :class:`RestartAttempt` — the multi-restart
  model-selection protocol (recurrent models are initialisation
  sensitive; the paper trains several seeds and keeps the best by
  training-episode AFTER utility), shared by ``POSHGNN.fit`` and the
  recurrent baselines: it gives every attempt its run directory and
  resume checkpoint.
* :func:`load_fit` — restore a completed multi-restart fit from its run
  directory, which is how the bench drivers resume a killed table
  regeneration without re-fitting completed methods.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from ..core import evaluation
from ..nn import Adam
from ..nn.serialization import load_module, save_module
from ..obs import DEFAULT_VALUE_BOUNDARIES, PERF, EventLog
from .checkpoint import CheckpointManager, TrainerCheckpoint
from .guards import DivergenceGuard, GuardConfig, NonFiniteSignal, TrainingDiverged
from .manifest import RunManifest

__all__ = ["TrainingEngine", "RestartAttempt", "run_restarts", "load_fit"]


class TrainingEngine:
    """One fault-tolerant epoch loop for every gradient trainer.

    Parameters
    ----------
    model:
        The module being trained; the engine builds its Adam optimiser
        at ``lr``.
    epochs / shuffle / seed:
        Loop length and optional per-epoch episode shuffling from an
        engine-owned RNG seeded with ``seed`` whose state is
        checkpointed, so resumed runs draw the same orders an
        uninterrupted run would.
    checkpoint_dir:
        Run directory for checkpoints, ``manifest.json`` and
        ``events.jsonl``; ``None`` disables persistence (guards still
        roll back to in-memory recovery points).
    save_every / keep_last:
        Checkpoint cadence in epochs and epoch-archive retention.
    guard:
        Divergence/early-stop policy (:class:`GuardConfig`).
    on_epoch_end:
        Optional callback ``(engine, epoch, history)`` after each
        completed epoch (progress reporting, external kill switches).
    """

    #: ``kind`` recorded in the run manifest (e.g. ``"poshgnn-train"``).
    manifest_kind = "train"

    def __init__(self, model, *, lr: float, epochs: int, seed: int = 0,
                 shuffle: bool = False,
                 checkpoint_dir: str | os.PathLike | None = None,
                 save_every: int = 1, keep_last: int = 3,
                 guard: GuardConfig | None = None, verbose: bool = False,
                 on_epoch_end=None):
        if epochs < 1:
            raise ValueError("epochs must be positive")
        self.model = model
        self.optimizer = Adam(model.parameters(), lr=lr)
        self.epochs = epochs
        self.shuffle = shuffle
        self.rng = np.random.default_rng(seed)
        self.checkpoint_dir = checkpoint_dir
        self.save_every = save_every
        self.keep_last = keep_last
        self.guard_config = guard or GuardConfig()
        self.verbose = verbose
        self.on_epoch_end = on_epoch_end
        self.resolved_alpha = None

    # ------------------------------------------------------------------
    # What a subclass supplies
    # ------------------------------------------------------------------
    def resolve_alpha(self, problems: list):
        """Resolve the loss alpha for this problem set (None if unused).

        Called once per ``train()`` on a fresh run, and on resume when
        the checkpoint predates alpha tracking — never cached across
        calls, so an ``"auto"`` configuration re-resolves per run.
        """
        return None

    def train_episode(self, problem, guard: DivergenceGuard,
                      epoch: int) -> float:
        """Train one episode; returns its summed window loss.

        Must route window losses and gradient norms through
        ``guard.check_loss`` / ``guard.check_grad_norm`` so non-finite
        values surface as :class:`~repro.training.NonFiniteSignal`
        before they reach the optimiser.
        """
        raise NotImplementedError

    def manifest_config(self) -> dict:
        """Configuration block recorded in the run manifest."""
        return {}

    # ------------------------------------------------------------------
    # Recovery points
    # ------------------------------------------------------------------
    def _capture(self) -> dict:
        """Snapshot model, optimiser and RNG state."""
        return {"model": self.model.state_dict(),
                "optim": self.optimizer.state_dict(),
                "rng": self.rng.bit_generator.state}

    def _restore(self, snapshot: dict) -> None:
        self.model.load_state_dict(snapshot["model"])
        self.optimizer.load_state_dict(snapshot["optim"])
        self.rng.bit_generator.state = snapshot["rng"]

    @staticmethod
    def _scan_history(history: list, min_delta: float) -> tuple:
        """Recompute (patience reference, best epoch) from a loss history."""
        reference = np.inf
        best_epoch = -1
        for index, value in enumerate(history):
            if value < reference - min_delta:
                reference = value
                best_epoch = index
        return reference, best_epoch

    # ------------------------------------------------------------------
    # The training loop
    # ------------------------------------------------------------------
    def train(self, problems: list, resume_from=None) -> dict:
        """Run the full training loop; returns a loss history dict.

        ``resume_from`` accepts a checkpoint file or a run directory
        (resolved to its newest epoch archive); the run continues from
        the stored epoch cursor bit-identically to a run that was never
        interrupted.
        """
        if not problems:
            raise ValueError("no training problems")

        manager = None
        event_log = None
        if self.checkpoint_dir is not None:
            manager = CheckpointManager(self.checkpoint_dir,
                                        save_every=self.save_every,
                                        keep_last=self.keep_last)
            event_log = EventLog(os.path.join(manager.directory,
                                              "events.jsonl"))
        guard = DivergenceGuard(self.guard_config, sink=event_log)

        history: list[float] = []
        best_loss = np.inf
        best_state = None
        epoch = 0
        resumed_path = None
        if resume_from is not None:
            resumed_path = CheckpointManager.resolve(resume_from)
            checkpoint = TrainerCheckpoint.load(resumed_path)
            self.model.load_state_dict(checkpoint.model_state)
            self.optimizer.load_state_dict(checkpoint.optimizer_state)
            if checkpoint.rng_state is not None:
                self.rng.bit_generator.state = checkpoint.rng_state
            history = list(checkpoint.history)
            best_loss = checkpoint.best_loss
            best_state = checkpoint.best_state
            epoch = checkpoint.epoch
            guard.events = list(checkpoint.guard_events)
            self.resolved_alpha = checkpoint.alpha
            if self.resolved_alpha is None:
                self.resolved_alpha = self.resolve_alpha(problems)
        else:
            self.resolved_alpha = self.resolve_alpha(problems)

        patience_ref, best_epoch = self._scan_history(
            history, self.guard_config.min_delta)
        recovery = self._capture()
        perf_mark = PERF.snapshot()
        started = time.perf_counter()
        early_stopped = False
        best_dirty = False
        start_epoch = epoch
        if event_log is not None:
            event_log.emit("train.start", epoch=epoch, epochs=self.epochs,
                           resumed_from=resumed_path)

        try:
            while epoch < self.epochs:
                order = list(range(len(problems)))
                if self.shuffle:
                    self.rng.shuffle(order)
                try:
                    epoch_loss = 0.0
                    with PERF.scope("train.epoch", {"epoch": epoch}):
                        for index in order:
                            epoch_loss += self.train_episode(
                                problems[index], guard, epoch)
                except NonFiniteSignal as signal:
                    # Roll back before deciding whether to retry, so even
                    # a TrainingDiverged escape leaves the model at its
                    # last good state instead of the poisoned one.  The
                    # live lr is read before the restore (the recovery
                    # snapshot holds the pre-backoff lr) so consecutive
                    # backoffs compound.
                    current_lr = self.optimizer.lr
                    self._restore(recovery)
                    PERF.count(f"train.guard.{signal.kind}")
                    try:
                        self.optimizer.lr = guard.on_nonfinite(signal,
                                                               current_lr)
                    except TrainingDiverged as exhausted:
                        self.optimizer.lr = exhausted.lr_after
                        raise
                    PERF.count("train.guard.rollbacks")
                    if self.verbose:
                        print(f"epoch {epoch + 1}: non-finite "
                              f"{signal.kind}, rolled back, "
                              f"lr -> {self.optimizer.lr:.2e}")
                    continue

                PERF.count("train.epochs")
                guard.on_epoch_success()
                history.append(epoch_loss / len(problems))
                epoch += 1
                PERF.observe("train.epoch_loss", history[-1],
                             boundaries=DEFAULT_VALUE_BOUNDARIES)
                if history[-1] < best_loss:
                    best_loss = history[-1]
                    best_state = self.model.state_dict()
                    best_dirty = True
                if history[-1] < patience_ref - self.guard_config.min_delta:
                    patience_ref = history[-1]
                    best_epoch = epoch - 1
                if self.verbose:
                    print(f"epoch {epoch}/{self.epochs}: "
                          f"loss {history[-1]:.4f}")

                recovery = self._capture()
                if manager is not None and \
                        manager.due(epoch, final=epoch == self.epochs):
                    checkpoint = TrainerCheckpoint(
                        model_state=recovery["model"],
                        optimizer_state=recovery["optim"],
                        epoch=epoch,
                        history=list(history),
                        best_loss=float(best_loss),
                        best_state=best_state,
                        alpha=self.resolved_alpha,
                        rng_state=recovery["rng"],
                        guard_events=list(guard.events),
                    )
                    saved_path = manager.save(checkpoint,
                                              is_best=best_dirty)
                    event_log.emit("checkpoint.save", epoch=epoch,
                                   path=saved_path, best=best_dirty)
                    best_dirty = False
                    PERF.count("train.checkpoints")
                    self._write_manifest(manager, event_log, guard, history,
                                         best_loss, best_epoch,
                                         epoch - start_epoch,
                                         time.perf_counter() - started,
                                         perf_mark, resumed_path,
                                         early_stopped=False)
                if self.on_epoch_end is not None:
                    self.on_epoch_end(self, epoch, history)
                if guard.should_stop_early(epoch, best_epoch):
                    early_stopped = True
                    PERF.count("train.early_stops")
                    break

            if best_state is not None:
                self.model.load_state_dict(best_state)

            wall_clock = time.perf_counter() - started
            result = {
                "loss": history,
                "best_loss": best_loss,
                "alpha": self.resolved_alpha,
                "epochs_run": epoch - start_epoch,
                "early_stopped": early_stopped,
                "guard_events": list(guard.events),
                "wall_clock_s": wall_clock,
            }
            if manager is not None:
                event_log.emit("train.complete",
                               epochs_run=epoch - start_epoch,
                               early_stopped=early_stopped,
                               wall_clock_s=wall_clock)
                result["manifest_path"] = self._write_manifest(
                    manager, event_log, guard, history, best_loss,
                    best_epoch, epoch - start_epoch, wall_clock, perf_mark,
                    resumed_path, early_stopped)
                result["checkpoint_dir"] = manager.directory
                result["events_path"] = event_log.path
            return result
        finally:
            if event_log is not None:
                event_log.close()

    # ------------------------------------------------------------------
    def _write_manifest(self, manager, event_log, guard, history, best_loss,
                        best_epoch, epochs_run, wall_clock, perf_mark,
                        resumed_path, early_stopped) -> str:
        metrics = {name: histogram.as_dict()
                   for name, histogram in sorted(PERF.histograms.items())
                   if name.startswith("train.")}
        manifest = RunManifest(
            kind=self.manifest_kind,
            config=self.manifest_config(),
            history=[float(value) for value in history],
            best_loss=None if not np.isfinite(best_loss)
            else float(best_loss),
            best_epoch=best_epoch if best_epoch >= 0 else None,
            epochs_run=epochs_run,
            wall_clock_s=wall_clock,
            perf=PERF.delta_since(perf_mark),
            metrics=metrics,
            guard_events=list(guard.events),
            events_path=event_log.path,
            events_summary=event_log.summary(),
            checkpoints=[path for _, path in manager.epoch_checkpoints()],
            resumed_from=resumed_path,
            early_stopped=early_stopped,
        )
        return manager.write_manifest(manifest)


# ----------------------------------------------------------------------
# Multi-restart model selection (the paper's fit protocol)
# ----------------------------------------------------------------------
class RestartAttempt:
    """One entry of a multi-restart fit: a label, a seed, extra params.

    ``params`` carries attempt-specific hyperparameters (e.g. POSHGNN's
    preservation cap) that are recorded per attempt and re-applied to
    the model when the attempt wins selection.
    """

    def __init__(self, label: str, seed: int, params: dict | None = None):
        self.label = label
        self.seed = seed
        self.params = dict(params or {})


def run_restarts(model, problems: list, attempts: list, *, prepare,
                 make_trainer, run_dir: str | None = None,
                 resume_from: str | os.PathLike | None = None,
                 manifest_kind: str = "fit",
                 manifest_config: dict | None = None,
                 apply_params=None) -> dict:
    """Train ``attempts`` fits of ``model`` and keep the best by score.

    The shared restart protocol behind ``POSHGNN.fit`` and the recurrent
    baselines: every attempt is prepared (reinitialised), trained on
    ``problems`` and scored by its mean *training-episode* AFTER
    utility, and the winning state is loaded back into the model.  With
    ``run_dir`` set, attempt ``<label>`` trains under
    ``run_dir/<label>``, a ``fit_manifest.json`` records every attempt,
    the winner and ``complete: true``, and the selected parameters are
    saved to ``model.npz`` — which is what lets :func:`load_fit` (and
    the bench drivers) restore a finished fit without re-training.
    ``resume_from=<previous run_dir>`` continues a killed fit: each
    attempt resumes from the newest checkpoint under
    ``resume_from/<label>``, so completed attempts fast-forward and the
    interrupted one resumes mid-run bit-identically.

    ``prepare(attempt)`` reinitialises the model for an attempt;
    ``make_trainer(checkpoint_dir)`` builds the attempt's
    :class:`TrainingEngine` — it is also called once before the first
    attempt, so a rejected keyword or setting raises while the model is
    still untouched; ``apply_params(params)`` re-applies the winning
    attempt's params.
    """
    if not attempts:
        raise ValueError("restarts must be positive")
    if not problems:
        raise ValueError("no training problems")
    make_trainer(None)
    best_utility = -np.inf
    best_state = None
    best_attempt = None
    best_history: dict = {}
    records: list[dict] = []
    for attempt in attempts:
        prepare(attempt)
        checkpoint_dir = None
        if run_dir is not None:
            checkpoint_dir = os.path.join(run_dir, attempt.label)
        resume = None
        if resume_from is not None:
            candidate = os.path.join(os.fspath(resume_from), attempt.label)
            if os.path.isdir(candidate):
                resume = CheckpointManager(candidate).latest_path()
        history = make_trainer(checkpoint_dir).train(problems,
                                                     resume_from=resume)
        # Called through its module so a tracer that patches
        # evaluate_episode sees the restart scoring.
        utility = float(np.mean([
            evaluation.evaluate_episode(problem, model).after_utility
            for problem in problems]))
        records.append({"label": attempt.label, "seed": attempt.seed,
                        **attempt.params, "train_utility": utility,
                        "best_loss": history.get("best_loss")})
        if utility > best_utility:
            best_utility = utility
            best_state = model.state_dict()
            best_attempt = attempt
            best_history = history
    if best_state is not None:
        if apply_params is not None and best_attempt is not None:
            apply_params(best_attempt.params)
        model.load_state_dict(best_state)
    best_history["train_utility"] = best_utility
    if run_dir is not None:
        model_path = save_module(model, os.path.join(run_dir, "model.npz"))
        RunManifest(
            kind=manifest_kind,
            config=manifest_config or {},
            best_loss=best_history.get("best_loss"),
            extra={"attempts": records,
                   "selected": best_attempt.label
                   if best_attempt is not None else None,
                   "selected_params": dict(best_attempt.params)
                   if best_attempt is not None else {},
                   "train_utility": best_utility,
                   "model_path": model_path,
                   "complete": True},
        ).write(os.path.join(run_dir, "fit_manifest.json"))
        best_history["run_dir"] = run_dir
    return best_history


def load_fit(model, run_dir: str | os.PathLike) -> dict | None:
    """Restore a completed :func:`run_restarts` fit from ``run_dir``.

    Returns the fit manifest's ``extra`` block (attempts, winner,
    selected params) after loading the saved model state, or ``None``
    when the directory holds no *complete* fit — missing manifest,
    interrupted run, unreadable document or missing ``model.npz`` all
    mean "re-fit from scratch".
    """
    run_dir = os.fspath(run_dir)
    manifest_path = os.path.join(run_dir, "fit_manifest.json")
    if not os.path.exists(manifest_path):
        return None
    try:
        manifest = RunManifest.load(manifest_path)
    except (ValueError, KeyError, json.JSONDecodeError):
        return None
    extra = manifest.extra or {}
    if not extra.get("complete"):
        return None
    model_path = extra.get("model_path")
    if not model_path or not os.path.exists(model_path):
        # Tolerate relocated run directories: the archive sits beside
        # the manifest under its canonical name.
        model_path = os.path.join(run_dir, "model.npz")
        if not os.path.exists(model_path):
            return None
    load_module(model, model_path)
    return extra
