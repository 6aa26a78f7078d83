"""The AFTER recommender interface (paper Definition 1).

A recommender is a per-step function from the target-centric frame to the
set of users rendered for the target.  Stateful recommenders (POSHGNN,
recurrent baselines) carry hidden state across steps; ``reset`` is called
once before each episode.
"""

from __future__ import annotations

import numpy as np

from .problem import AfterProblem
from .scene import Frame

__all__ = ["Recommender", "top_k_mask", "scores_to_recommendation",
           "checked_render_mask"]


def top_k_mask(scores: np.ndarray, k: int,
               eligible: np.ndarray | None = None) -> np.ndarray:
    """Boolean mask of the top-``k`` positive-score eligible users."""
    scores = np.asarray(scores, dtype=np.float64).copy()
    if eligible is not None:
        scores[~np.asarray(eligible, dtype=bool)] = -np.inf
    mask = np.zeros(scores.shape[0], dtype=bool)
    if k <= 0:
        return mask
    order = np.argsort(-scores)[:k]
    top = scores[order]
    mask[order[np.isfinite(top) & (top > 0)]] = True
    return mask


def scores_to_recommendation(scores: np.ndarray, frame: Frame,
                             max_render: int,
                             threshold: float = 0.0) -> np.ndarray:
    """Standard post-processing: mask ineligible users, take top-k.

    ``threshold`` filters out low-confidence entries (used with
    probability outputs, e.g. POSHGNN's 0.5).
    """
    scores = np.asarray(scores, dtype=np.float64).copy()
    scores[frame.mask <= 0] = -np.inf
    scores[scores <= threshold] = -np.inf
    eligible = np.isfinite(scores)
    return top_k_mask(np.where(eligible, scores, -np.inf), max_render,
                      eligible)


def checked_render_mask(rendered, num_users: int,
                        recommender) -> np.ndarray:
    """``recommend``'s return value as a boolean mask over the roster.

    A scalar or a mask of the wrong length would broadcast into the
    episode's recommendation rows and render everyone (or no one)
    without a word; it is refused with a ``ValueError`` naming
    ``recommender``.  Non-bool masks are cast by truthiness.
    """
    rendered = np.asarray(rendered, dtype=bool)
    if rendered.shape != (num_users,):
        raise ValueError(
            f"{recommender!r} returned a render mask of shape "
            f"{rendered.shape}; expected ({num_users},)")
    return rendered


class Recommender:
    """Base class for AFTER recommenders."""

    #: Human-readable name used in result tables.
    name: str = "base"

    def reset(self, problem: AfterProblem) -> None:
        """Prepare for a new episode (clear recurrent state, bind target).

        The default implementation stores the problem.
        """
        self.problem = problem

    def recommend(self, frame: Frame) -> np.ndarray:
        """Return the boolean render mask for this step."""
        raise NotImplementedError

    def fit(self, problems: list) -> dict:
        """Train on a list of problems; returns a history dict.

        Non-learned recommenders are no-ops.  Gradient-trained models
        also take training keywords and define ``restore_fit``; the
        drivers pass keywords only to those.
        """
        return {}

    def reroster(self, problem: AfterProblem,
                 keep: np.ndarray) -> None:
        """Rebind to a resized roster mid-episode (population churn).

        ``problem`` is the post-churn instance and ``keep`` maps each
        new-roster index to its old-roster index (``-1`` for a user who
        just joined).  Stateful recommenders override this to *project*
        their carried per-user state along ``keep`` — rows for kept
        users travel, joiners start from the initial state — so
        discovery continuity survives joins and leaves.  The default is
        a cold :meth:`reset` on the new roster, which is exact for
        stateless recommenders (their only carried attribute is the
        bound problem).
        """
        del keep
        self.reset(problem)

    def session_clone(self) -> "Recommender":
        """An independent copy of this recommender for one live session.

        Stateful recommenders carry per-episode state (hidden vectors,
        the previous recommendation), so concurrent rooms in a
        :class:`~repro.serving.SessionEngine` must not share one
        instance.  The default deep copy duplicates learned parameters
        and carried state alike; recommenders backed by resources that
        must not be copied override this.
        """
        import copy

        return copy.deepcopy(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
