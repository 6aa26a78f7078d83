"""Test oracles: the paper's metrics computed exactly as they are defined.

:func:`dense_structural_delta` is MIA's ``Delta_t`` with the two dense
``A^2`` products of its definition, and :func:`mia_oracle` MIA's delta
and propagation built on it; the production
:func:`~repro.geometry.structural_delta` works from degree vectors.

:func:`episode_oracle` walks an :class:`~repro.core.AfterProblem` one
step at a time.  It shares no assembly code with the production walk,
:func:`repro.core.evaluation.evaluate_episode` (cached episode frames,
batched occlusion graphs, one visibility resolution per episode).  Each
step instead gets:

* its occlusion graph from the dense per-target
  :class:`~repro.geometry.OcclusionGraphConverter`;
* its frame from :meth:`~repro.core.AfterProblem.frame_from_graph`;
* its visibility and occlusion rate from the dense
  :func:`~repro.geometry.resolve_visibility` and
  :func:`~repro.geometry.occlusion_rate`.

Suites compare the production walk and the streaming session against it
bit for bit (``runtime_ms`` aside: it is wall-clock).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import AfterProblem, UtilityAccumulator, step_utility
from repro.core.evaluation import AggregateResult, EpisodeResult
from repro.geometry import occlusion_rate, resolve_visibility
from repro.models.poshgnn.mia import row_normalise


def dense_structural_delta(current: np.ndarray,
                           previous: np.ndarray) -> np.ndarray:
    """``[1 || (A_t - A_{t-1}) 1 || (A_t^2 - A_{t-1}^2) 1]``, O(N^3)."""
    ones = np.ones(current.shape[0])
    return np.column_stack([ones, (current - previous) @ ones,
                            (current @ current - previous @ previous) @ ones])


def mia_oracle(adjacency: np.ndarray, previous: np.ndarray | None
               ) -> tuple[np.ndarray, np.ndarray]:
    """MIA's scaled ``Delta_t`` and propagation matrix from the dense forms.

    ``previous`` is MIA's ``A_{t-1}``; ``None`` before the first step.
    """
    if previous is None:
        previous = np.zeros_like(adjacency)
    delta = dense_structural_delta(adjacency, previous)
    scale = max(float(np.abs(delta[:, 1:]).max()), 1.0)
    delta = np.column_stack([delta[:, 0], delta[:, 1:] / scale])
    return delta, row_normalise(adjacency)


def episode_oracle(problem: AfterProblem, recommender) -> EpisodeResult:
    """The per-step episode walk: one graph, frame and resolution a step."""
    recommender.reset(problem)
    converter = problem.room.converter()
    positions = problem.room.trajectory.positions
    accumulator = UtilityAccumulator(problem.beta)
    occlusion_rates: list[float] = []
    runtimes: list[float] = []
    recommendations = np.zeros(
        (problem.horizon + 1, problem.num_users), dtype=bool)
    visible_previous = np.zeros(problem.num_users, dtype=bool)

    for t in range(problem.horizon + 1):
        graph = converter.convert(positions[t], problem.target)
        frame = problem.frame_from_graph(t, graph)
        start = time.perf_counter()
        rendered = np.asarray(recommender.recommend(frame), dtype=bool)
        runtimes.append(time.perf_counter() - start)

        rendered = rendered.copy()
        rendered[problem.target] = False
        recommendations[t] = rendered

        visible = resolve_visibility(graph, rendered, frame.forced)
        occlusion_rates.append(occlusion_rate(graph, rendered, frame.forced))
        accumulator.add(step_utility(frame.preference, frame.presence,
                                     visible, visible_previous, rendered))
        visible_previous = visible

    return EpisodeResult(
        after_utility=accumulator.total_after,
        preference=accumulator.total_preference,
        presence=accumulator.total_presence,
        occlusion_rate=float(np.mean(occlusion_rates)),
        runtime_ms=float(np.mean(runtimes) * 1000.0),
        per_step_after=accumulator.per_step_after(),
        recommendations=recommendations,
    )


def targets_oracle(room, recommender, targets, beta: float = 0.5,
                   max_render: int = 8) -> AggregateResult:
    """:func:`episode_oracle` per target, aggregated as by
    ``evaluate_targets``."""
    return AggregateResult.from_episodes([
        episode_oracle(AfterProblem(room, target, beta=beta,
                                    max_render=max_render), recommender)
        for target in targets])
