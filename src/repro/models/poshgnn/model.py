"""The full POSHGNN recommender (paper Sec. IV).

Composes MIA -> PDR -> LWP -> preservation gate, exposes both the
training-time unrolled forward pass and the :class:`~repro.core.Recommender`
inference interface.

Ablation variants (paper Table V) are selected by flags:

* ``use_lwp=False``  -> "PDR w/ MIA": the gate is bypassed
  (``r_t = m_t (x) r_tilde_t``).
* ``use_mia=False``  -> "Only PDR": raw un-normalised features, no
  pruning mask, no structural deltas.
"""

from __future__ import annotations

import numpy as np

from ...core.problem import AfterProblem
from ...core.recommender import Recommender, scores_to_recommendation
from ...core.scene import Frame
from ...nn import Module, Tensor, no_grad
from .lwp import LWP, preservation_gate
from .mia import MIA
from .pdr import PDR

__all__ = ["POSHGNN"]

FEATURE_DIM = 4   # [p_hat, s_hat, distance, interface]
DELTA_DIM = 3     # [e^0, e^1, e^2]


class POSHGNN(Module, Recommender):
    """PP/OP/SP/HP-aware graph neural network.

    Parameters
    ----------
    hidden_dim:
        GNN hidden width (paper: 8).
    use_mia / use_lwp:
        Ablation switches (see module docstring).
    threshold:
        Probability cut-off at inference; users above it compete for the
        ``max_render`` display slots.
    """

    name = "POSHGNN"

    def __init__(self, hidden_dim: int = 8, use_mia: bool = True,
                 use_lwp: bool = True, threshold: float = 0.5,
                 seed: int = 0):
        Module.__init__(self)
        self.hidden_dim = hidden_dim
        self.use_mia = use_mia
        self.use_lwp = use_lwp
        self.threshold = threshold
        self.seed = seed
        self.mia = MIA(use_normalised=use_mia, use_delta=use_mia)
        self.reinitialize(seed)

        if not use_lwp and not use_mia:
            self.name = "Only PDR"
        elif not use_lwp:
            self.name = "PDR w/ MIA"

        self._hidden: Tensor | None = None
        self._recommendation: Tensor | None = None

    def reinitialize(self, seed: int) -> None:
        """(Re)draw all network parameters from the given seed."""
        rng = np.random.default_rng(seed)
        self.pdr = PDR(FEATURE_DIM, self.hidden_dim, rng)
        if self.use_lwp:
            self.lwp = LWP(FEATURE_DIM, DELTA_DIM, self.hidden_dim, rng)

    # ------------------------------------------------------------------
    # Shared step logic
    # ------------------------------------------------------------------
    def initial_state(self, num_users: int) -> tuple[Tensor, Tensor]:
        """Zero hidden state and zero previous recommendation."""
        return (Tensor(np.zeros((num_users, self.hidden_dim))),
                Tensor(np.zeros(num_users)))

    def step(self, frame: Frame, previous_hidden: Tensor,
             previous_recommendation: Tensor
             ) -> tuple[Tensor, Tensor, "np.ndarray"]:
        """One unrolled POSHGNN step.

        Returns ``(r_t, h_t, mia_output)`` where ``r_t`` and ``h_t``
        participate in the autograd graph.
        """
        aggregated = self.mia.process(frame)
        features = Tensor(aggregated.features)
        prototype, hidden = self.pdr(features, aggregated.propagation)

        if self.use_lwp:
            sigma = self.lwp(features, Tensor(aggregated.delta),
                             previous_hidden, previous_recommendation,
                             aggregated.propagation)
            # Never fully freeze: a slice of PDR's fresh solution is
            # always blended in so stale recommendations get re-examined
            # (the paper's "re-examine parts where ... the recommendation
            # results are inferior").
            recommendation = preservation_gate(
                aggregated.mask, sigma * self.max_preserve, prototype,
                previous_recommendation)
        else:
            recommendation = Tensor(aggregated.mask) * prototype
        return recommendation, hidden, aggregated

    def train_start(self, problem: AfterProblem) -> tuple[Tensor, Tensor]:
        """Reset MIA and return the zero carries of a training episode."""
        self.mia.reset()
        return self.initial_state(problem.num_users)

    def train_step(self, frame: Frame, hidden: Tensor, previous: Tensor
                   ) -> tuple[Tensor, Tensor, "np.ndarray"]:
        """One training step: ``(r_t, h_t, A_t)`` for the POSHGNN loss."""
        recommendation, hidden, aggregated = self.step(frame, hidden,
                                                       previous)
        return recommendation, hidden, aggregated.adjacency

    # ------------------------------------------------------------------
    # Recommender interface
    # ------------------------------------------------------------------
    #: Score bonus for users already on the display.  LWP preserves
    #: continuity at the probability level; this makes the preservation
    #: effective at the *set* level too — without it, ranking noise among
    #: near-tied probabilities churns the top-k and destroys the
    #: consecutive visibility that social presence requires.
    incumbent_bonus = 0.1

    #: Upper bound on the preservation coefficient (see ``step``).
    max_preserve = 0.85

    def reset(self, problem: AfterProblem) -> None:
        Recommender.reset(self, problem)
        self.mia.reset()
        self._hidden, self._recommendation = self.initial_state(
            problem.num_users)
        self._rendered = np.zeros(problem.num_users, dtype=bool)

    def reroster(self, problem: AfterProblem, keep) -> None:
        """Project the carried episode state onto a churned roster.

        Kept users keep their LWP rows (``h_{t-1}``/``r_{t-1}``), their
        previous-display bit and their block of MIA's ``A_{t-1}``;
        joiners start from the zero initial state exactly as in
        :meth:`reset`.  Learned parameters are untouched — only the
        per-episode per-user state is resized.
        """
        keep = np.asarray(keep, dtype=np.int64)
        hidden, recommendation = self._hidden, self._recommendation
        rendered = self._rendered
        previous_adjacency = self.mia._previous_adjacency
        self.reset(problem)
        kept = keep >= 0
        sources = keep[kept]
        if hidden is not None:
            self._hidden.data[kept] = hidden.data[sources]
            self._recommendation.data[kept] = recommendation.data[sources]
        self._rendered[kept] = rendered[sources]
        if previous_adjacency is not None:
            adjacency = np.zeros((problem.num_users, problem.num_users),
                                 dtype=previous_adjacency.dtype)
            slots = np.nonzero(kept)[0]
            adjacency[np.ix_(slots, slots)] = \
                previous_adjacency[np.ix_(sources, sources)]
            self.mia._previous_adjacency = adjacency

    def carried_state(self) -> dict:
        """Copies of the per-episode state carried across steps.

        ``hidden``/``recommendation`` are LWP's ``h_{t-1}``/``r_{t-1}``,
        ``rendered`` the previous display set, and
        ``previous_adjacency`` MIA's ``A_{t-1}`` (``None`` before the
        first step).  The streaming parity suite compares these between
        a live session and the offline episode walk step by step.
        """
        return {
            "hidden": None if self._hidden is None
            else self._hidden.data.copy(),
            "recommendation": None if self._recommendation is None
            else self._recommendation.data.copy(),
            "rendered": self._rendered.copy(),
            "previous_adjacency":
                None if self.mia._previous_adjacency is None
                else self.mia._previous_adjacency.copy(),
        }

    def recommend(self, frame: Frame) -> np.ndarray:
        with no_grad():
            recommendation, hidden, _ = self.step(
                frame, self._hidden, self._recommendation)
        self._hidden = hidden.detach()
        self._recommendation = recommendation.detach()
        scores = recommendation.data.copy()
        if self.use_lwp:
            scores = scores + self.incumbent_bonus * self._rendered
        rendered = scores_to_recommendation(
            scores, frame, self.problem.max_render,
            threshold=self.threshold)
        self._rendered = rendered
        return rendered

    #: Preservation-cap candidates explored during fitting (with LWP).
    preserve_grid = (1.0, 0.85)

    def fit(self, problems: list, restarts: int = 2,
            run_dir: str | None = None, resume_from: str | None = None,
            **kwargs) -> dict:
        """Train with multi-restart model selection.

        Gated recurrences are initialisation-sensitive, and the best
        preservation strength depends on how fast the scene changes.
        ``restarts`` seeds x the ``preserve_grid`` caps are each trained,
        and the model achieving the highest *training-episode* AFTER
        utility (the true objective — no test data involved) is kept.
        With ``run_dir`` set, each attempt trains under
        ``run_dir/attempt<i>-cap<c>`` with checkpoints and a manifest,
        and a ``fit_manifest.json`` records which attempt won.
        ``resume_from=<previous run_dir>`` continues a killed fit:
        completed attempts fast-forward from their final checkpoint, the
        interrupted one resumes mid-run bit-identically.  Remaining
        kwargs go to :class:`~repro.models.poshgnn.trainer.POSHGNNTrainer`
        (``checkpoint_dir`` is ``run_dir``'s per-attempt directory and
        cannot be passed); a rejected keyword raises before the model is
        reinitialised.
        """
        from ...training.engine import RestartAttempt, run_restarts
        from .trainer import POSHGNNTrainer

        caps = self.preserve_grid if self.use_lwp else (1.0,)
        attempts = [
            RestartAttempt(
                label=f"attempt{attempt}-cap{int(round(100 * cap))}",
                seed=self.seed + 1000 * attempt,
                params={"cap": cap})
            for attempt in range(restarts)
            for cap in caps]

        def prepare(attempt):
            self.reinitialize(attempt.seed)
            self.max_preserve = attempt.params["cap"]

        def make_trainer(checkpoint_dir):
            return POSHGNNTrainer(self, checkpoint_dir=checkpoint_dir,
                                  **kwargs)

        def apply_params(params):
            self.max_preserve = params["cap"]

        return run_restarts(
            self, problems, attempts, prepare=prepare,
            make_trainer=make_trainer, apply_params=apply_params,
            run_dir=run_dir, resume_from=resume_from,
            manifest_kind="poshgnn-fit",
            manifest_config={
                "restarts": restarts, "caps": list(caps),
                "trainer": {key: value for key, value in kwargs.items()
                            if isinstance(value, (int, float, str, bool))}})

    def restore_fit(self, run_dir: str) -> bool:
        """Restore a completed :meth:`fit` from its run directory.

        Loads the selected model state from ``run_dir/model.npz`` and
        re-applies the winning preservation cap; returns ``False`` (model
        untouched) when the directory holds no complete fit — which is
        how the bench drivers decide between skipping and re-fitting.
        """
        from ...training.engine import load_fit

        extra = load_fit(self, run_dir)
        if extra is None:
            return False
        cap = extra.get("selected_params", {}).get("cap")
        if cap is not None:
            self.max_preserve = cap
        return True
