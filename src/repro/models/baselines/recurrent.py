"""Recurrent GNN baselines: DCRNN and T-GCN (paper Sec. V-A2).

Both perform dynamic recommendation like POSHGNN and, "for a fair
comparison, share similar parameters with POSHGNN and are also trained by
POSHGNN loss".  They consume the same per-frame features but lack MIA's
pruning mask, structural deltas, and the LWP preservation gate.

* **DCRNN** [72]: diffusion convolution (bidirectional K-hop random
  walks on the occlusion graph) feeding a GRU.
* **T-GCN** [73]: a GRU whose gates are graph convolutions.

Training runs on the shared :class:`repro.training.engine.TrainingEngine`
(the same fault-tolerant loop POSHGNN uses): ``fit`` gets divergence
guards, per-attempt checkpoints + ``events.jsonl`` + run manifests under
``run_dir``, and ``resume_from=`` to continue a killed fit bit-identically
— completed restart attempts fast-forward from their final checkpoint
without re-training.
"""

from __future__ import annotations

import os

import numpy as np

from ...core.problem import AfterProblem
from ...core.recommender import Recommender, top_k_mask
from ...core.scene import Frame
from ...nn import (
    Adam,
    DiffusionConv,
    GraphGRUCell,
    GRUCell,
    Linear,
    Module,
    Tensor,
    clip_grad_norm,
    no_grad,
)
from ...nn import functional as F
from ...obs import DEFAULT_VALUE_BOUNDARIES, PERF
from ...training import CheckpointManager, GuardConfig
from ...training.engine import (
    RestartAttempt,
    TrainableSpec,
    TrainingEngine,
    load_fit,
    run_restarts,
)
from ..poshgnn.loss import POSHGNNLoss, resolve_alpha
from ..poshgnn.mia import row_normalise

__all__ = ["DCRNNRecommender", "TGCNRecommender"]

FEATURE_DIM = 4


class _RecurrentTrainSpec(TrainableSpec):
    """Adapts a recurrent baseline + optimiser to the TrainingEngine."""

    def __init__(self, model, optimizer, alpha, epochs, bptt_window,
                 grad_clip):
        self.model = model
        self.optimizer = optimizer
        self.configured_alpha = alpha
        self.resolved_alpha = None
        self.epochs = epochs
        self.bptt_window = bptt_window
        self.grad_clip = grad_clip
        self.manifest_kind = f"{model.name.lower()}-train"

    def resolve_alpha(self, problems):
        """Re-resolve the configured alpha against this problem set."""
        return resolve_alpha(problems, self.configured_alpha)

    def set_resolved_alpha(self, value):
        """Record the alpha this run trains with."""
        self.resolved_alpha = value

    def capture_state(self):
        """Snapshot model + optimiser state."""
        return {"model": self.model.state_dict(),
                "optim": self.optimizer.state_dict()}

    def restore_state(self, snapshot):
        """Restore a :meth:`capture_state` snapshot."""
        self.model.load_state_dict(snapshot["model"])
        self.optimizer.load_state_dict(snapshot["optim"])

    def model_state(self):
        """The model's state dict alone."""
        return self.model.state_dict()

    def load_model_state(self, state):
        """Load a best-epoch model snapshot."""
        self.model.load_state_dict(state)

    @property
    def lr(self):
        """Live Adam learning rate."""
        return self.optimizer.lr

    @lr.setter
    def lr(self, value):
        self.optimizer.lr = value

    def train_episode(self, problem, guard, epoch):
        """One truncated-BPTT episode with guard-checked windows."""
        return self.model._train_episode(
            problem, self.optimizer, self.resolved_alpha,
            self.bptt_window, self.grad_clip, guard=guard, epoch=epoch)

    def manifest_config(self):
        """Configuration block recorded in the run manifest."""
        return {
            "lr": self.optimizer.lr,
            "alpha": self.configured_alpha
            if self.configured_alpha == "auto"
            else float(self.configured_alpha),
            "resolved_alpha": self.resolved_alpha,
            "epochs": self.epochs,
            "bptt_window": self.bptt_window,
            "grad_clip": self.grad_clip,
        }


class _RecurrentGNNRecommender(Module, Recommender):
    """Shared plumbing for the two recurrent baselines."""

    threshold = 0.5

    def __init__(self):
        Module.__init__(self)
        self._hidden: Tensor | None = None

    # Subclasses implement one unrolled step.
    def step(self, features: Tensor, hidden: Tensor,
             adjacency: np.ndarray) -> tuple[Tensor, Tensor]:
        raise NotImplementedError

    def initial_state(self, num_users: int) -> Tensor:
        raise NotImplementedError

    def _frame_inputs(self, frame: Frame) -> tuple[Tensor, np.ndarray]:
        # Raw features: the MIA preprocessing (utility pruning, distance
        # normalisation, hybrid-participation mask) is POSHGNN's
        # contribution — the baselines see the unprocessed scene.
        return Tensor(frame.raw_features()), frame.graph.adjacency_float()

    # ------------------------------------------------------------------
    # Recommender interface
    # ------------------------------------------------------------------
    def reset(self, problem: AfterProblem) -> None:
        Recommender.reset(self, problem)
        self._hidden = self.initial_state(problem.num_users)

    def recommend(self, frame: Frame) -> np.ndarray:
        features, adjacency = self._frame_inputs(frame)
        with no_grad():
            probabilities, hidden = self.step(features, self._hidden,
                                              adjacency)
        self._hidden = hidden.detach()
        # No MIA mask here either: only the target is excluded.
        scores = probabilities.data.copy()
        scores[frame.target] = -np.inf
        scores[scores <= self.threshold] = -np.inf
        eligible = np.isfinite(scores)
        return top_k_mask(np.where(eligible, scores, -np.inf),
                          self.problem.max_render, eligible)

    #: ``fit`` accepts ``run_dir`` (checkpoints + manifest per attempt);
    #: the bench drivers key off this to pass one through.
    supports_run_dir = True

    #: ``fit`` accepts ``resume_from=<previous run_dir>`` to continue a
    #: killed multi-restart fit from its per-attempt checkpoints.
    supports_resume_from = True

    def fit(self, problems: list, lr: float = 1e-2, alpha="auto",
            epochs: int = 20, bptt_window: int = 10,
            grad_clip: float = 5.0, restarts: int = 2,
            run_dir: str | None = None, resume_from: str | None = None,
            guard: GuardConfig | None = None, save_every: int = 1,
            keep_last: int = 3, on_epoch_end=None) -> dict:
        """Train with the POSHGNN loss (paper's fair-comparison setup).

        Uses the same multi-restart protocol as POSHGNN: each restart is
        scored by its *training-episode* AFTER utility and the best model
        kept (recurrent models are initialisation-sensitive).  Runs on
        the shared :class:`~repro.training.engine.TrainingEngine`, so a
        ``run_dir`` yields per-attempt checkpoints, ``events.jsonl`` and
        run manifests plus a ``fit_manifest.json``, and
        ``resume_from=<previous run_dir>`` continues a killed fit:
        completed attempts fast-forward from their final checkpoint,
        the interrupted one resumes mid-run bit-identically.
        """
        from ...core.evaluation import evaluate_episode

        if not problems:
            raise ValueError("no training problems")
        if restarts < 1:
            raise ValueError("restarts must be positive")
        attempts = [RestartAttempt(label=f"attempt{index}",
                                   seed=self.seed + 1000 * index)
                    for index in range(restarts)]

        def prepare(attempt):
            if attempt.seed != self.seed:
                self.reinitialize(attempt.seed)

        def train(attempt):
            optimizer = Adam(self.parameters(), lr=lr)
            spec = _RecurrentTrainSpec(self, optimizer, alpha, epochs,
                                       bptt_window, grad_clip)
            store = None if run_dir is None \
                else os.path.join(run_dir, attempt.label)
            attempt_resume = None
            if resume_from is not None:
                candidate = os.path.join(os.fspath(resume_from),
                                         attempt.label)
                if os.path.isdir(candidate):
                    try:
                        attempt_resume = CheckpointManager.resolve(candidate)
                    except FileNotFoundError:
                        attempt_resume = None
            engine = TrainingEngine(spec, epochs=epochs, store=store,
                                    guard=guard, save_every=save_every,
                                    keep_last=keep_last,
                                    on_epoch_end=on_epoch_end)
            return engine.train(problems, resume_from=attempt_resume)

        def score(attempt):
            return np.mean([evaluate_episode(problem, self).after_utility
                            for problem in problems])

        return run_restarts(
            self, attempts, prepare=prepare, train=train, score=score,
            run_dir=run_dir, manifest_kind=f"{self.name.lower()}-fit",
            manifest_config={
                "restarts": restarts,
                "trainer": {"lr": lr,
                            "alpha": alpha if alpha == "auto"
                            else float(alpha),
                            "epochs": epochs, "bptt_window": bptt_window,
                            "grad_clip": grad_clip}})

    def restore_fit(self, run_dir: str) -> bool:
        """Restore a completed :meth:`fit` from its run directory.

        Returns ``False`` (model untouched) when the directory holds no
        complete fit, which tells the bench drivers to re-fit instead of
        skipping.
        """
        return load_fit(self, run_dir) is not None

    def _train_episode(self, problem: AfterProblem, optimizer: Adam,
                       alpha: float, bptt_window: int,
                       grad_clip: float, guard=None, epoch: int = 0) -> float:
        loss_fn = POSHGNNLoss(beta=problem.beta, alpha=alpha)
        hidden = self.initial_state(problem.num_users)
        previous = Tensor(np.zeros(problem.num_users))
        total_loss = 0.0
        window_loss = None
        steps = 0
        for t in range(problem.horizon + 1):
            frame = problem.frame_at(t)
            features, adjacency = self._frame_inputs(frame)
            probabilities, hidden = self.step(features, hidden, adjacency)
            step_loss = loss_fn.step_loss(
                probabilities, previous, frame.preference_hat,
                frame.presence_hat, adjacency)
            window_loss = step_loss if window_loss is None \
                else window_loss + step_loss
            previous = probabilities
            steps += 1
            if steps >= bptt_window or t == problem.horizon:
                window_value = window_loss.item()
                if guard is not None:
                    guard.check_loss(window_value, epoch)
                optimizer.zero_grad()
                window_loss.backward()
                norm = clip_grad_norm(self.parameters(), grad_clip)
                if guard is not None:
                    guard.check_grad_norm(norm, epoch)
                PERF.observe("train.grad_norm", norm,
                             boundaries=DEFAULT_VALUE_BOUNDARIES)
                PERF.observe("train.window_loss", window_value,
                             boundaries=DEFAULT_VALUE_BOUNDARIES)
                optimizer.step()
                total_loss += window_value
                window_loss = None
                steps = 0
                hidden = hidden.detach()
                previous = previous.detach()
        return total_loss


class DCRNNRecommender(_RecurrentGNNRecommender):
    """Diffusion-convolutional recurrent network on occlusion graphs."""

    name = "DCRNN"

    def __init__(self, hidden_dim: int = 8, k_hops: int = 2, seed: int = 0):
        super().__init__()
        self.hidden_dim = hidden_dim
        self.k_hops = k_hops
        self.seed = seed
        self.reinitialize(seed)

    def reinitialize(self, seed: int) -> None:
        """(Re)draw all network parameters from the given seed."""
        rng = np.random.default_rng(seed)
        self.encoder = DiffusionConv(FEATURE_DIM, self.hidden_dim,
                                     self.k_hops, rng)
        self.cell = GRUCell(self.hidden_dim, self.hidden_dim, rng)
        self.readout = Linear(self.hidden_dim, 1, rng)

    def initial_state(self, num_users: int) -> Tensor:
        """Zero GRU state for ``num_users`` nodes."""
        return self.cell.initial_state(num_users)

    def step(self, features: Tensor, hidden: Tensor,
             adjacency: np.ndarray) -> tuple[Tensor, Tensor]:
        """One unrolled step: diffusion conv -> GRU -> sigmoid head."""
        encoded = F.relu(self.encoder(features, adjacency))
        hidden = self.cell(encoded, hidden)
        probabilities = F.sigmoid(self.readout(hidden)).reshape(-1)
        return probabilities, hidden


class TGCNRecommender(_RecurrentGNNRecommender):
    """Temporal GCN: graph-convolutional GRU over occlusion graphs."""

    name = "TGCN"

    def __init__(self, hidden_dim: int = 8, seed: int = 0):
        super().__init__()
        self.hidden_dim = hidden_dim
        self.seed = seed
        self.reinitialize(seed)

    def reinitialize(self, seed: int) -> None:
        """(Re)draw all network parameters from the given seed."""
        rng = np.random.default_rng(seed)
        self.cell = GraphGRUCell(FEATURE_DIM, self.hidden_dim, rng)
        self.readout = Linear(self.hidden_dim, 1, rng)

    def initial_state(self, num_users: int) -> Tensor:
        """Zero GRU state for ``num_users`` nodes."""
        return self.cell.initial_state(num_users)

    def step(self, features: Tensor, hidden: Tensor,
             adjacency: np.ndarray) -> tuple[Tensor, Tensor]:
        """One unrolled step: graph-gated GRU -> sigmoid head."""
        hidden = self.cell(features, hidden, row_normalise(adjacency))
        probabilities = F.sigmoid(self.readout(hidden)).reshape(-1)
        return probabilities, hidden
