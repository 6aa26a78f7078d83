"""Episode evaluation harness: the one offline path.

:func:`evaluate_episode` walks an :class:`AfterProblem`'s episode,
timing each ``recommend`` call, resolving visibility (including forced
MR presence), and accumulating the paper's five reported metrics: AFTER
utility, preference, social presence, view-occlusion rate, and running
time per step.  The metrics are defined per step; the walk computes them
per episode:

* frames come from :meth:`AfterProblem.episode_frames` (the room's
  frame cache, or a private copy for block/allow-list problems),
  assembled in vectorised passes over the target's occlusion graphs;
* every render mask is collected first, and visibility is resolved once
  for the whole episode from the rendered avatars' adjacency rows.

:func:`evaluate_targets` prebuilds a room's occlusion graphs for all its
targets with the batched converter, then walks each target's episode.
The per-step definition lives in ``tests/oracles.py`` as an oracle built
from the dense per-step pieces; the streaming
:class:`~repro.serving.RoomSession` is the other per-step walk, and the
parity suites pin all three bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..geometry import resolve_episode_visibility
from ..obs import DEFAULT_VALUE_BOUNDARIES, PERF
from .problem import AfterProblem
from .recommender import Recommender, checked_render_mask
from .utility import UtilityAccumulator, step_utility

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


def evaluate_episode(problem: AfterProblem,
                     recommender: Recommender) -> EpisodeResult:
    """Run ``recommender`` over the full episode of ``problem``.

    Walks the problem's cached episode frames, timing each
    ``recommend`` call, then resolves visibility for the whole episode
    at once from the rendered avatars' adjacency rows.  The recommender
    API never observes visibility — ``recommend`` sees only the frame —
    so collecting every render mask first computes exactly the per-step
    definitions; ``tests/oracles.py`` holds that per-step walk and the
    suites check the two agree bit for bit.  A ``recommend`` result
    that is not one flag per user raises ``ValueError``.
    """
    recommender.reset(problem)
    accumulator = UtilityAccumulator(problem.beta)
    runtimes: list[float] = []
    count = problem.num_users
    recommendations = np.zeros((problem.horizon + 1, count), dtype=bool)
    visible_previous = np.zeros(count, dtype=bool)

    with PERF.scope("eval.episode", {"target": int(problem.target)}):
        with PERF.scope("eval.episode_frames"):
            frames = problem.episode_frames()

        with PERF.scope("eval.recommend"):
            for frame in frames:
                start = time.perf_counter()
                rendered = recommender.recommend(frame)
                elapsed = time.perf_counter() - start
                runtimes.append(elapsed)
                recommendations[frame.t] = checked_render_mask(
                    rendered, count, recommender)
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


def evaluate_targets(room, recommender: Recommender, targets,
                     beta: float = 0.5,
                     max_render: int = 8) -> AggregateResult:
    """Evaluate one recommender for several target users of a room.

    Builds every target's occlusion graph in one batched pass, then
    runs :func:`evaluate_episode` per target; the room caches share
    graphs and frames with later recommenders on the same room.
    """
    targets = [int(target) for target in np.asarray(targets).ravel()]
    if not targets:
        # An online caller's room can drain to zero targets: report NaN
        # metrics instead of failing the aggregation.
        return AggregateResult.empty()
    with PERF.scope("eval.targets", {"num_targets": len(targets)}):
        with PERF.scope("eval.prebuild_dogs"):
            room.prebuild_dogs(targets)
        episodes = [evaluate_episode(AfterProblem(room, target, beta=beta,
                                                  max_render=max_render),
                                     recommender)
                    for target in targets]
    return AggregateResult.from_episodes(episodes)
