"""``repro.core`` — the AFTER problem, utilities, and evaluation harness.

Implements the paper's Sec. III formalism: the AFTER recommender
interface (Definition 1), the AFTER utility (Definition 2), the problem
instance (Definition 3), per-step frames with MIA preprocessing, and the
episode evaluation harness producing the five table metrics.
"""

from .evaluation import (
    AggregateResult,
    EpisodeResult,
    evaluate_episode,
    evaluate_targets,
)
from .metrics import mean_and_std, paired_p_value, pearson, spearman
from .problem import DEFAULT_BETA, DEFAULT_MAX_RENDER, AfterProblem
from .recommender import Recommender, scores_to_recommendation, top_k_mask
from .scene import Frame, distance_normalise
from .utility import StepUtility, UtilityAccumulator, step_utility

__all__ = [
    "AfterProblem",
    "DEFAULT_BETA",
    "DEFAULT_MAX_RENDER",
    "Frame",
    "distance_normalise",
    "Recommender",
    "top_k_mask",
    "scores_to_recommendation",
    "StepUtility",
    "step_utility",
    "UtilityAccumulator",
    "EpisodeResult",
    "AggregateResult",
    "evaluate_episode",
    "evaluate_targets",
    "paired_p_value",
    "pearson",
    "spearman",
    "mean_and_std",
]
