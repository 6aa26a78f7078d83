"""Recurrent GNN baselines: DCRNN and T-GCN (paper Sec. V-A2).

Both perform dynamic recommendation like POSHGNN and, "for a fair
comparison, share similar parameters with POSHGNN and are also trained by
POSHGNN loss".  They consume the same per-frame features but lack MIA's
pruning mask, structural deltas, and the LWP preservation gate.

* **DCRNN** [72]: diffusion convolution (bidirectional K-hop random
  walks on the occlusion graph) feeding a GRU.
* **T-GCN** [73]: a GRU whose gates are graph convolutions.

Training is POSHGNN's: ``fit`` builds a
:class:`~repro.models.poshgnn.trainer.POSHGNNTrainer` per restart
attempt, which unrolls the model through ``train_start``/``train_step``
on the shared fault-tolerant loop.  So ``fit`` gets divergence guards,
per-attempt checkpoints + ``events.jsonl`` + run manifests under
``run_dir``, and ``resume_from=`` to continue a killed fit bit-identically
— completed restart attempts fast-forward from their final checkpoint
without re-training.
"""

from __future__ import annotations

import numpy as np

from ...core.problem import AfterProblem
from ...core.recommender import Recommender, top_k_mask
from ...core.scene import Frame
from ...nn import (
    DiffusionConv,
    GraphGRUCell,
    GRUCell,
    Linear,
    Module,
    Tensor,
    no_grad,
)
from ...nn import functional as F
from ...training import GuardConfig
from ...training.engine import RestartAttempt, load_fit, run_restarts
from ..poshgnn.mia import row_normalise
from ..poshgnn.trainer import POSHGNNTrainer

__all__ = ["DCRNNRecommender", "TGCNRecommender"]

FEATURE_DIM = 4


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

    def train_start(self, problem: AfterProblem) -> tuple[Tensor, Tensor]:
        """Zero hidden state and zero previous probabilities."""
        return (self.initial_state(problem.num_users),
                Tensor(np.zeros(problem.num_users)))

    def train_step(self, frame: Frame, hidden: Tensor, previous: Tensor
                   ) -> tuple[Tensor, Tensor, np.ndarray]:
        """One training step on the raw frame: ``(p_t, h_t, A_t)``."""
        features, adjacency = self._frame_inputs(frame)
        probabilities, hidden = self.step(features, hidden, adjacency)
        return probabilities, hidden, adjacency

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

    def fit(self, problems: list, lr: float = 1e-2, alpha="auto",
            epochs: int = 20, bptt_window: int = 10,
            grad_clip: float = 5.0, restarts: int = 2,
            run_dir: str | None = None, resume_from: str | None = None,
            guard: GuardConfig | None = None, save_every: int = 1,
            keep_last: int = 3, on_epoch_end=None) -> dict:
        """Train with the POSHGNN loss (paper's fair-comparison setup).

        Uses the same multi-restart protocol and the same
        :class:`~repro.models.poshgnn.trainer.POSHGNNTrainer` as POSHGNN:
        each restart is scored by its *training-episode* AFTER utility
        and the best model kept (recurrent models are
        initialisation-sensitive).  A ``run_dir`` yields per-attempt
        checkpoints, ``events.jsonl`` and run manifests plus a
        ``fit_manifest.json``, and ``resume_from=<previous run_dir>``
        continues a killed fit: completed attempts fast-forward from
        their final checkpoint, the interrupted one resumes mid-run
        bit-identically.
        """
        attempts = [RestartAttempt(label=f"attempt{index}",
                                   seed=self.seed + 1000 * index)
                    for index in range(restarts)]

        def prepare(attempt):
            if attempt.seed != self.seed:
                self.reinitialize(attempt.seed)

        def make_trainer(checkpoint_dir):
            return POSHGNNTrainer(
                self, lr=lr, alpha=alpha, epochs=epochs,
                bptt_window=bptt_window, grad_clip=grad_clip,
                checkpoint_dir=checkpoint_dir, save_every=save_every,
                keep_last=keep_last, guard=guard, on_epoch_end=on_epoch_end)

        return run_restarts(
            self, problems, attempts, prepare=prepare,
            make_trainer=make_trainer, run_dir=run_dir,
            resume_from=resume_from,
            manifest_kind=f"{self.name.lower()}-fit",
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
