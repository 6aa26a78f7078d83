"""Episode evaluation harness.

Walks an :class:`AfterProblem` step by step, timing each ``recommend``
call, resolving visibility (including forced MR presence), and
accumulating the paper's five reported metrics: AFTER utility, preference,
social presence, view-occlusion rate, and running time per step.

Two engines produce identical metrics:

* ``"reference"`` — :func:`evaluate_episode`: one frame build and two
  visibility resolutions per step, exactly as the metrics are defined.
* ``"batched"`` — shares occlusion graphs and frames across
  recommenders through the room caches (prebuilt with the batched
  all-targets converter), assembles episode frames in vectorised
  passes, and resolves visibility once per episode from the rendered
  avatars' adjacency rows.  Every array it produces is bit-identical to
  the reference path; ``tests/core/test_engine_determinism.py`` asserts
  it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..geometry import occlusion_rate, resolve_episode_visibility, \
    resolve_visibility
from ..obs import DEFAULT_VALUE_BOUNDARIES, PERF
from .problem import AfterProblem
from .recommender import Recommender
from .utility import StepUtility, UtilityAccumulator, step_utility

__all__ = ["EpisodeResult", "AggregateResult", "evaluate_episode",
           "evaluate_targets"]


@dataclass
class EpisodeResult:
    """Metrics for one (recommender, problem) episode."""

    after_utility: float
    preference: float
    presence: float
    occlusion_rate: float       # mean over steps, in [0, 1]
    runtime_ms: float           # mean per step
    per_step_after: np.ndarray = field(repr=False)
    recommendations: np.ndarray = field(repr=False)   # (T+1, N) bool

    def continuity(self) -> float:
        """Mean Jaccard overlap of consecutive recommendation sets.

        1.0 = perfectly stable display, 0.0 = total flicker.  Not a paper
        table metric, but the quantity LWP is designed to protect.
        """
        if self.recommendations.shape[0] < 2:
            return 1.0
        a = self.recommendations[:-1]
        b = self.recommendations[1:]
        inter = (a & b).sum(axis=1)
        union = (a | b).sum(axis=1)
        overlaps = np.ones(union.shape[0], dtype=np.float64)
        np.divide(inter, union, out=overlaps, where=union > 0)
        return float(np.mean(overlaps))


@dataclass
class AggregateResult:
    """Metrics averaged over several episodes/targets."""

    after_utility: float
    preference: float
    presence: float
    occlusion_rate: float
    runtime_ms: float
    episodes: list = field(default_factory=list, repr=False)

    @classmethod
    def empty(cls) -> "AggregateResult":
        """The aggregate of zero episodes: NaN metrics, no episodes.

        Online callers legitimately ask for zero targets (a room whose
        users all disconnected mid-session); they get a well-formed
        result whose metrics are NaN rather than a crash.
        """
        nan = float("nan")
        return cls(after_utility=nan, preference=nan, presence=nan,
                   occlusion_rate=nan, runtime_ms=nan, episodes=[])

    @classmethod
    def from_episodes(cls, episodes: list) -> "AggregateResult":
        if not episodes:
            raise ValueError("no episodes to aggregate")
        return cls(
            after_utility=float(np.mean([e.after_utility for e in episodes])),
            preference=float(np.mean([e.preference for e in episodes])),
            presence=float(np.mean([e.presence for e in episodes])),
            occlusion_rate=float(np.mean([e.occlusion_rate for e in episodes])),
            runtime_ms=float(np.mean([e.runtime_ms for e in episodes])),
            episodes=list(episodes),
        )

    def after_utilities(self) -> np.ndarray:
        """Per-episode AFTER utilities (for significance tests)."""
        return np.array([e.after_utility for e in self.episodes])


def _observe_step(util: StepUtility, beta: float, recommend_s: float,
                  graph) -> None:
    """Fold one step's metrics into the PERF histograms.

    Only called while collection is enabled; the adjacency reduction is
    the price of the occlusion-graph-size distribution, so it must stay
    off the disabled path.
    """
    PERF.observe("eval.recommend_s", recommend_s)
    PERF.observe("eval.step_after_utility", util.after(beta),
                 boundaries=DEFAULT_VALUE_BOUNDARIES)
    PERF.observe("eval.graph_edges", int(graph.adjacency.sum()) // 2,
                 boundaries=DEFAULT_VALUE_BOUNDARIES)


def evaluate_episode(problem: AfterProblem,
                     recommender: Recommender) -> EpisodeResult:
    """Run ``recommender`` over the full episode of ``problem``.

    This is the reference engine: frames are assembled per step and
    visibility is resolved exactly as each metric is defined.
    """
    recommender.reset(problem)
    accumulator = UtilityAccumulator(problem.beta)
    occlusion_rates: list[float] = []
    runtimes: list[float] = []
    recommendations = np.zeros(
        (problem.horizon + 1, problem.num_users), dtype=bool)
    visible_previous = np.zeros(problem.num_users, dtype=bool)

    with PERF.scope("eval.episode", {"target": int(problem.target),
                                     "engine": "reference"}):
        for t in range(problem.horizon + 1):
            with PERF.scope("eval.frame"):
                frame = problem.frame_at(t)
            start = time.perf_counter()
            rendered = np.asarray(recommender.recommend(frame), dtype=bool)
            elapsed = time.perf_counter() - start
            runtimes.append(elapsed)
            PERF.add_time("eval.recommend", elapsed)

            rendered = rendered.copy()
            rendered[problem.target] = False
            recommendations[t] = rendered

            with PERF.scope("eval.visibility"):
                visible = resolve_visibility(frame.graph, rendered,
                                             frame.forced)
                occlusion_rates.append(occlusion_rate(frame.graph, rendered,
                                                      frame.forced))
            util = step_utility(frame.preference, frame.presence,
                                visible, visible_previous, rendered)
            accumulator.add(util)
            visible_previous = visible
            if PERF.enabled:
                _observe_step(util, problem.beta, elapsed, frame.graph)
    PERF.count("eval.steps", problem.horizon + 1)
    PERF.count("eval.episodes")

    return EpisodeResult(
        after_utility=accumulator.total_after,
        preference=accumulator.total_preference,
        presence=accumulator.total_presence,
        occlusion_rate=float(np.mean(occlusion_rates)),
        runtime_ms=float(np.mean(runtimes) * 1000.0),
        per_step_after=accumulator.per_step_after(),
        recommendations=recommendations,
    )


def _evaluate_episode_fast(problem: AfterProblem,
                           recommender: Recommender) -> EpisodeResult:
    """The batched engine's episode walk.

    Identical metrics to :func:`evaluate_episode`: the prebuilt frames
    equal the per-step builds array-for-array, and the episode-level
    visibility resolution equals the two per-step resolutions.  The
    recommender API never observes visibility — ``recommend`` sees only
    the frame — so collecting all render masks first and resolving
    visibility for the whole episode afterwards walks the exact same
    computation.
    """
    recommender.reset(problem)
    accumulator = UtilityAccumulator(problem.beta)
    runtimes: list[float] = []
    recommendations = np.zeros(
        (problem.horizon + 1, problem.num_users), dtype=bool)
    visible_previous = np.zeros(problem.num_users, dtype=bool)

    with PERF.scope("eval.episode", {"target": int(problem.target),
                                     "engine": "batched"}):
        with PERF.scope("eval.episode_frames"):
            frames = problem.episode_frames()

        with PERF.scope("eval.recommend"):
            for frame in frames:
                start = time.perf_counter()
                rendered = recommender.recommend(frame)
                elapsed = time.perf_counter() - start
                runtimes.append(elapsed)
                recommendations[frame.t] = rendered
                if PERF.enabled:
                    PERF.observe("eval.recommend_s", elapsed)
        recommendations[:, problem.target] = False

        with PERF.scope("eval.visibility"):
            visibility, occlusion_rates = resolve_episode_visibility(
                problem.dog.snapshots, recommendations, frames[0].forced,
                np.stack([frame.blocked for frame in frames]),
                np.stack([frame.forced_occluded for frame in frames]))

        with PERF.scope("eval.utility"):
            for frame in frames:
                visible = visibility[frame.t]
                util = step_utility(frame.preference, frame.presence,
                                    visible, visible_previous,
                                    recommendations[frame.t])
                accumulator.add(util)
                visible_previous = visible
                if PERF.enabled:
                    PERF.observe("eval.step_after_utility",
                                 util.after(problem.beta),
                                 boundaries=DEFAULT_VALUE_BOUNDARIES)
                    PERF.observe("eval.graph_edges",
                                 int(frame.graph.adjacency.sum()) // 2,
                                 boundaries=DEFAULT_VALUE_BOUNDARIES)
    PERF.count("eval.steps", problem.horizon + 1)
    PERF.count("eval.episodes")

    return EpisodeResult(
        after_utility=accumulator.total_after,
        preference=accumulator.total_preference,
        presence=accumulator.total_presence,
        occlusion_rate=float(np.mean(occlusion_rates)),
        runtime_ms=float(np.mean(runtimes) * 1000.0),
        per_step_after=accumulator.per_step_after(),
        recommendations=recommendations,
    )


_ENGINES = ("batched", "reference")


def evaluate_targets(room, recommender: Recommender, targets,
                     beta: float = 0.5, max_render: int = 8, *,
                     engine: str = "batched") -> AggregateResult:
    """Evaluate one recommender for several target users of a room.

    Parameters
    ----------
    engine:
        ``"batched"`` (default) shares graphs/frames through the room
        caches and resolves visibility once per step; ``"reference"``
        evaluates every target from scratch.  Both produce identical
        metrics.
    """
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected {_ENGINES}")
    targets = [int(target) for target in np.asarray(targets).ravel()]
    if not targets:
        # An online caller's room can drain to zero targets: report NaN
        # metrics instead of failing the aggregation.
        return AggregateResult.empty()
    evaluate = _evaluate_episode_fast if engine == "batched" \
        else evaluate_episode
    with PERF.scope("eval.targets", {"engine": engine,
                                     "num_targets": len(targets)}):
        if engine == "batched":
            with PERF.scope("eval.prebuild_dogs"):
                room.prebuild_dogs(targets)
        episodes = [evaluate(AfterProblem(room, target, beta=beta,
                                          max_render=max_render),
                             recommender)
                    for target in targets]
    return AggregateResult.from_episodes(episodes)
