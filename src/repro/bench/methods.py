"""Method factories for the experiment drivers."""

from __future__ import annotations

from ..models import (
    COMURNetRecommender,
    DCRNNRecommender,
    GraFrankRecommender,
    MvAGCRecommender,
    NearestRecommender,
    POSHGNN,
    RandomRecommender,
    RenderAllRecommender,
    TGCNRecommender,
)
from .config import BenchConfig

__all__ = ["table_methods", "ablation_methods", "study_methods",
           "method_slug"]


def method_slug(name: str) -> str:
    """Filesystem-safe slug of a bench method name.

    Keys the per-method artefacts under a bench run directory: the
    training subdirectory ``<run_dir>/<slug>/`` and the
    ``bench_<slug>.json`` manifest the resume logic checks.
    """
    return name.lower().replace(" ", "-").replace("/", "")


def table_methods(config: BenchConfig) -> dict:
    """The paper's Tables II-IV column order."""
    return {
        "POSHGNN": POSHGNN(seed=config.seed),
        "Random": RandomRecommender(seed=config.seed),
        "Nearest": NearestRecommender(),
        "MvAGC": MvAGCRecommender(seed=config.seed),
        "GraFrank": GraFrankRecommender(seed=config.seed),
        "DCRNN": DCRNNRecommender(seed=config.seed),
        "TGCN": TGCNRecommender(seed=config.seed),
        "COMURNet": COMURNetRecommender(
            rollouts=config.comurnet_rollouts, seed=config.seed),
    }


def ablation_methods(config: BenchConfig) -> dict:
    """Table V variants: Full / PDR w MIA / Only PDR."""
    return {
        "Full": POSHGNN(seed=config.seed),
        "PDR w/ MIA": POSHGNN(seed=config.seed, use_lwp=False),
        "Only PDR": POSHGNN(seed=config.seed, use_lwp=False, use_mia=False),
    }


def study_methods(config: BenchConfig) -> dict:
    """The five display conditions of the user study (Fig. 4)."""
    return {
        "POSHGNN": POSHGNN(seed=config.seed),
        "GraFrank": GraFrankRecommender(seed=config.seed),
        "MvAGC": MvAGCRecommender(seed=config.seed),
        "COMURNet": COMURNetRecommender(
            rollouts=max(4, config.comurnet_rollouts // 2), seed=config.seed),
        "Original": RenderAllRecommender(),
    }
