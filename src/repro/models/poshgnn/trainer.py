"""POSHGNN training loop: truncated BPTT on the POSHGNN loss.

The paper trains with Adam at lr 1e-2 (Sec. V-A5).  Episodes are unrolled
in windows; the recurrent carries (``h_{t-1}``, ``r_{t-1}``) are detached
at window boundaries so the autograd graph stays bounded on long horizons
(T = 100).

The fault-tolerant loop itself — epochs, checkpoint/resume, divergence
guards, run manifests, event logs — lives in
:class:`repro.training.engine.TrainingEngine` and is shared with the
trainable baselines; this module supplies the POSHGNN-specific
:class:`~repro.training.engine.TrainableSpec`: one truncated-BPTT
episode over the cached episode frames, the POSHGNN loss with its
resolved alpha, and the Adam optimiser state.  See docs/TRAINING.md:

* **Checkpoint/resume** — with ``checkpoint_dir`` set, a versioned
  :class:`~repro.training.TrainerCheckpoint` (model, full optimiser
  state, epoch cursor, loss history, best snapshot, resolved alpha, RNG
  state) is written atomically every ``save_every`` epochs, last-k plus
  best retained.  ``train(..., resume_from=...)`` restarts mid-run
  **bit-identically** to an uninterrupted run.
* **Divergence guards** — a non-finite window loss or gradient norm
  never reaches the optimiser: the epoch is rolled back to the last
  recovery point and retried at a backed-off learning rate, bounded by
  :class:`~repro.training.GuardConfig.max_retries`; optional patience
  stops runs whose best loss has stagnated.
* **Run manifest** — checkpointed runs keep a ``manifest.json`` next to
  their checkpoints with losses, wall-clock, PERF deltas and every guard
  event.
"""

from __future__ import annotations

import numpy as np

from ...core.problem import AfterProblem
from ...nn import Adam, clip_grad_norm
from ...obs import DEFAULT_VALUE_BOUNDARIES, PERF
from ...training import GuardConfig
from ...training.engine import TrainableSpec, TrainingEngine
from ...training.guards import DivergenceGuard
from .loss import POSHGNNLoss, resolve_alpha
from .model import POSHGNN

__all__ = ["POSHGNNTrainer"]


class POSHGNNTrainer(TrainableSpec):
    """Trains a :class:`POSHGNN` on a set of problems (target episodes).

    Parameters
    ----------
    checkpoint_dir:
        Directory (or any :class:`repro.training.storage.CheckpointStore`)
        for checkpoints + manifest; ``None`` (default) disables
        persistence (guards still work off in-memory recovery points).
    save_every / keep_last:
        Checkpoint cadence in epochs and how many epoch files to retain
        (``best.npz`` is kept on top).
    guard:
        Divergence/early-stop policy; defaults to ``GuardConfig()``
        (rollback + lr backoff on, early stopping off).
    shuffle / seed:
        Optional per-epoch episode shuffling from a trainer-owned RNG
        whose state is checkpointed, so resumed runs draw the same
        orders an uninterrupted run would.
    on_epoch_end:
        Optional callback ``(trainer, epoch, history)`` after each
        completed epoch (progress reporting, external kill switches).
    """

    manifest_kind = "poshgnn-train"

    def __init__(self, model: POSHGNN, lr: float = 1e-2, alpha="auto",
                 epochs: int = 20, bptt_window: int = 10,
                 grad_clip: float = 5.0, verbose: bool = False,
                 seed: int = 0, shuffle: bool = False,
                 checkpoint_dir=None, save_every: int = 1,
                 keep_last: int = 3, guard: GuardConfig | None = None,
                 on_epoch_end=None):
        if epochs < 1:
            raise ValueError("epochs must be positive")
        if bptt_window < 1:
            raise ValueError("bptt_window must be positive")
        self.model = model
        self.alpha = alpha            # configured; never mutated by train()
        self.resolved_alpha: float | None = None
        self.epochs = epochs
        self.bptt_window = bptt_window
        self.grad_clip = grad_clip
        self.verbose = verbose
        self.shuffle = shuffle
        self.rng = np.random.default_rng(seed)
        self.checkpoint_dir = checkpoint_dir
        self.save_every = save_every
        self.keep_last = keep_last
        self.guard_config = guard or GuardConfig()
        self.on_epoch_end = on_epoch_end
        self.optimizer = Adam(model.parameters(), lr=lr)

    # ------------------------------------------------------------------
    # TrainableSpec interface (consumed by TrainingEngine)
    # ------------------------------------------------------------------
    def resolve_alpha(self, problems: list) -> float:
        """Resolve the configured alpha against this problem set."""
        return resolve_alpha(problems, self.alpha)

    def set_resolved_alpha(self, value) -> None:
        """Record the alpha this run trains with (fresh or resumed)."""
        self.resolved_alpha = value

    def capture_state(self) -> dict:
        """Snapshot model + optimiser state for rollback/checkpointing."""
        return {
            "model": self.model.state_dict(),
            "optim": self.optimizer.state_dict(),
        }

    def restore_state(self, snapshot: dict) -> None:
        """Restore a :meth:`capture_state` snapshot."""
        self.model.load_state_dict(snapshot["model"])
        self.optimizer.load_state_dict(snapshot["optim"])

    def model_state(self) -> dict:
        """The model's state dict (best-epoch snapshots)."""
        return self.model.state_dict()

    def load_model_state(self, state: dict) -> None:
        """Load a best-epoch model snapshot."""
        self.model.load_state_dict(state)

    @property
    def lr(self) -> float:
        """Live Adam learning rate (the guard backs it off on rollback)."""
        return self.optimizer.lr

    @lr.setter
    def lr(self, value: float) -> None:
        self.optimizer.lr = value

    def train_episode(self, problem: AfterProblem,
                      guard: DivergenceGuard, epoch: int) -> float:
        """One truncated-BPTT episode; returns its summed window loss."""
        return self._train_episode(problem, guard, epoch)

    def manifest_config(self) -> dict:
        """Configuration block recorded in the run manifest."""
        return {
            "lr": self.optimizer.lr,
            "alpha": self.alpha if self.alpha == "auto"
            else float(self.alpha),
            "resolved_alpha": self.resolved_alpha,
            "epochs": self.epochs,
            "bptt_window": self.bptt_window,
            "grad_clip": self.grad_clip,
            "shuffle": self.shuffle,
            "save_every": self.save_every,
            "keep_last": self.keep_last,
            "guard": {
                "max_retries": self.guard_config.max_retries,
                "lr_backoff": self.guard_config.lr_backoff,
                "min_lr": self.guard_config.min_lr,
                "patience": self.guard_config.patience,
                "min_delta": self.guard_config.min_delta,
            },
        }

    # ------------------------------------------------------------------
    # The training loop
    # ------------------------------------------------------------------
    def train(self, problems: list, resume_from=None) -> dict:
        """Run the full training loop; returns a loss history dict.

        ``resume_from`` accepts a checkpoint file or a checkpoint
        directory (resolved to its newest epoch file); the run continues
        from the stored epoch cursor bit-identically to a run that was
        never interrupted.
        """
        engine = TrainingEngine(
            self,
            epochs=self.epochs,
            shuffle=self.shuffle,
            rng=self.rng,
            store=self.checkpoint_dir,
            save_every=self.save_every,
            keep_last=self.keep_last,
            guard=self.guard_config,
            verbose=self.verbose,
            on_epoch_end=None if self.on_epoch_end is None
            else lambda _engine, epoch, history:
            self.on_epoch_end(self, epoch, history),
        )
        return engine.train(problems, resume_from=resume_from)

    # ------------------------------------------------------------------
    def _train_episode(self, problem: AfterProblem,
                       guard: DivergenceGuard, epoch: int) -> float:
        loss_fn = POSHGNNLoss(beta=problem.beta, alpha=self.resolved_alpha)
        self.model.mia.reset()
        hidden, recommendation = self.model.initial_state(problem.num_users)

        total_loss = 0.0
        window_loss = None
        steps_in_window = 0

        # Frames are cached across epochs, but MIA runs on every step of
        # every epoch: caching its streams cost more peak RSS than it saved.
        with PERF.scope("train.episode_frames"):
            frames = problem.episode_frames()

        for t in range(problem.horizon + 1):
            frame = frames[t]
            with PERF.scope("train.model_step"):
                new_recommendation, new_hidden, aggregated = self.model.step(
                    frame, hidden, recommendation)
            step_loss = loss_fn.step_loss(
                new_recommendation, recommendation,
                frame.preference_hat, frame.presence_hat,
                aggregated.adjacency)
            window_loss = step_loss if window_loss is None \
                else window_loss + step_loss
            steps_in_window += 1
            hidden, recommendation = new_hidden, new_recommendation

            end_of_window = steps_in_window >= self.bptt_window
            end_of_episode = t == problem.horizon
            if end_of_window or end_of_episode:
                window_value = window_loss.item()
                guard.check_loss(window_value, epoch)
                self.optimizer.zero_grad()
                with PERF.scope("train.backward"):
                    window_loss.backward()
                norm = clip_grad_norm(self.model.parameters(),
                                      self.grad_clip)
                guard.check_grad_norm(norm, epoch)
                PERF.observe("train.grad_norm", norm,
                             boundaries=DEFAULT_VALUE_BOUNDARIES)
                PERF.observe("train.window_loss", window_value,
                             boundaries=DEFAULT_VALUE_BOUNDARIES)
                self.optimizer.step()
                total_loss += window_value
                window_loss = None
                steps_in_window = 0
                hidden = hidden.detach()
                recommendation = recommendation.detach()

        return total_loss
