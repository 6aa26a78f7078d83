"""The one trainer: truncated BPTT on the POSHGNN loss.

The paper trains with Adam at lr 1e-2 (Sec. V-A5), and its baselines
"share similar parameters with POSHGNN and are also trained by POSHGNN
loss" (Sec. V-A2), so :class:`POSHGNNTrainer` trains POSHGNN and the
DCRNN/T-GCN baselines alike.  Episodes are unrolled in windows; the
recurrent carries (``h_{t-1}``, ``r_{t-1}``) are detached at window
boundaries so the autograd graph stays bounded on long horizons
(T = 100).  A model supplies two methods:

* ``train_start(problem) -> (hidden, previous)`` — the zero carries for
  a new episode (POSHGNN also resets MIA);
* ``train_step(frame, hidden, previous) -> (probabilities, hidden,
  adjacency)`` — one unrolled step, with the adjacency the loss's
  occlusion term reads.

The fault-tolerant loop itself — epochs, checkpoint/resume, divergence
guards, run manifests, event logs — is the base class
:class:`repro.training.engine.TrainingEngine`.  See docs/TRAINING.md:

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

from ...core.problem import AfterProblem
from ...nn import clip_grad_norm
from ...obs import DEFAULT_VALUE_BOUNDARIES, PERF
from ...training import GuardConfig
from ...training.engine import TrainingEngine
from ...training.guards import DivergenceGuard
from .loss import POSHGNNLoss, resolve_alpha
from .model import POSHGNN

__all__ = ["POSHGNNTrainer"]


class POSHGNNTrainer(TrainingEngine):
    """Trains a :class:`POSHGNN` (or a recurrent baseline) on problems.

    Parameters
    ----------
    lr / alpha:
        Adam learning rate and the loss alpha (``"auto"`` resolves it
        against each run's problems).
    bptt_window / grad_clip:
        Truncated-BPTT window length in steps and the gradient-norm clip.
    checkpoint_dir:
        Run directory for checkpoints + manifest + ``events.jsonl``;
        ``None`` (default) disables persistence (guards still work off
        in-memory recovery points).
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

    def __init__(self, model, lr: float = 1e-2, alpha="auto",
                 epochs: int = 20, bptt_window: int = 10,
                 grad_clip: float = 5.0, verbose: bool = False,
                 seed: int = 0, shuffle: bool = False,
                 checkpoint_dir=None, save_every: int = 1,
                 keep_last: int = 3, guard: GuardConfig | None = None,
                 on_epoch_end=None):
        if bptt_window < 1:
            raise ValueError("bptt_window must be positive")
        super().__init__(model, lr=lr, epochs=epochs, seed=seed,
                         shuffle=shuffle, checkpoint_dir=checkpoint_dir,
                         save_every=save_every, keep_last=keep_last,
                         guard=guard, verbose=verbose,
                         on_epoch_end=on_epoch_end)
        self.alpha = alpha            # configured; never mutated by train()
        self.bptt_window = bptt_window
        self.grad_clip = grad_clip
        self.manifest_kind = "poshgnn-train" if isinstance(model, POSHGNN) \
            else f"{model.name.lower()}-train"

    def resolve_alpha(self, problems: list) -> float:
        """Resolve the configured alpha against this problem set."""
        return resolve_alpha(problems, self.alpha)

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

    def train_episode(self, problem: AfterProblem,
                      guard: DivergenceGuard, epoch: int) -> float:
        """One truncated-BPTT episode; returns its summed window loss."""
        model = self.model
        loss_fn = POSHGNNLoss(beta=problem.beta, alpha=self.resolved_alpha)
        hidden, previous = model.train_start(problem)

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
                probabilities, hidden, adjacency = model.train_step(
                    frame, hidden, previous)
            step_loss = loss_fn.step_loss(
                probabilities, previous, frame.preference_hat,
                frame.presence_hat, adjacency)
            window_loss = step_loss if window_loss is None \
                else window_loss + step_loss
            steps_in_window += 1
            previous = probabilities

            end_of_window = steps_in_window >= self.bptt_window
            end_of_episode = t == problem.horizon
            if end_of_window or end_of_episode:
                window_value = window_loss.item()
                guard.check_loss(window_value, epoch)
                self.optimizer.zero_grad()
                with PERF.scope("train.backward"):
                    window_loss.backward()
                norm = clip_grad_norm(model.parameters(), self.grad_clip)
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
                previous = previous.detach()

        return total_loss
