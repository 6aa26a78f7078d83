"""Test oracles: the paper's definitions computed exactly as stated.

The production code computes each of these through one batched path
(:meth:`~repro.geometry.BatchedOcclusionConverter.convert_rooms`,
:func:`~repro.core.scene.build_room_frames` and the visibility kernel
behind :func:`~repro.geometry.resolve_episode_visibility`); the suites
check it bit for bit against the dense per-target forms kept here:

* :class:`OcclusionGraphConverter` builds one target's static occlusion
  graph at one instant with the dense ``(N, N)`` predicate
  :func:`~repro.geometry.arcs_intersect`;
* :func:`build_frame` assembles one frame (MIA preprocessing), and
  :func:`frame_from_graph` adds a problem's block/allow lists;
* :func:`resolve_visibility` and :func:`occlusion_rate` resolve one
  frame over all ``N x N`` user pairs, and
  :func:`physically_blocked_mask` is their "avatar behind a physical
  person" term on its own.

:func:`dense_structural_delta` is MIA's ``Delta_t`` with the two dense
``A^2`` products of its definition, and :func:`mia_oracle` MIA's delta
and propagation built on it; the production
:func:`~repro.geometry.structural_delta` works from degree vectors.

:func:`episode_oracle` walks an :class:`~repro.core.AfterProblem` one
step at a time from these dense pieces, sharing no assembly code with
the production walk, :func:`repro.core.evaluation.evaluate_episode`
(cached episode frames, batched occlusion graphs, one visibility
resolution per episode).  Suites compare the production walk and the
streaming session against it bit for bit (``runtime_ms`` aside: it is
wall-clock).
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core import AfterProblem, Frame, UtilityAccumulator, \
    distance_normalise, step_utility
from repro.core.evaluation import AggregateResult, EpisodeResult
from repro.geometry import DEFAULT_BODY_RADIUS, Arc, StaticOcclusionGraph, \
    angular_separation, arcs_intersect, forced_presence_mask, \
    physical_cover, project_to_floor
from repro.models.poshgnn.mia import row_normalise


class OcclusionGraphConverter:
    """Builds static occlusion graphs from floor positions.

    Parameters
    ----------
    body_radius:
        Radius of the disk each user's body projects onto the floor.
    view_limit:
        Optional maximum distance beyond which users do not take part in
        the view (users outside never occlude nor get occluded).  ``None``
        means unlimited (paper's 360-degree panoramic model).
    """

    def __init__(self, body_radius: float = DEFAULT_BODY_RADIUS,
                 view_limit: float | None = None,
                 fov: float | None = None):
        if body_radius <= 0:
            raise ValueError("body_radius must be positive")
        if view_limit is not None and view_limit <= 0:
            raise ValueError("view_limit must be positive when given")
        if fov is not None and not 0.0 < fov <= 2.0 * math.pi:
            raise ValueError("fov must be in (0, 2*pi] when given")
        self.body_radius = body_radius
        self.view_limit = view_limit
        self.fov = fov

    def convert(self, positions: np.ndarray, target: int,
                facing: float = 0.0) -> StaticOcclusionGraph:
        """Build the static occlusion graph for ``target`` at one instant.

        ``facing`` (radians) only matters with a finite field of view
        (``fov``): users outside the viewing cone neither occlude nor
        get occluded — an extension beyond the paper's 360-degree
        panoramic model, for headset-realistic viewports.
        """
        floor = project_to_floor(positions)
        count = floor.shape[0]
        if not 0 <= target < count:
            raise IndexError(f"target {target} out of range for {count} users")

        deltas = floor - floor[target]
        distances = np.hypot(deltas[:, 0], deltas[:, 1])
        centers = np.arctan2(deltas[:, 1], deltas[:, 0])
        centers[target] = 0.0

        ratio = np.ones(count)
        np.divide(self.body_radius, distances, out=ratio,
                  where=distances > self.body_radius)
        half_widths = np.where(distances <= self.body_radius,
                               math.pi / 2.0, np.arcsin(np.clip(ratio, 0.0, 1.0)))
        half_widths[target] = 0.0

        adjacency = arcs_intersect(centers, half_widths)
        adjacency[target, :] = False
        adjacency[:, target] = False

        if self.view_limit is not None:
            visible = distances <= self.view_limit
            visible[target] = True
            adjacency[~visible, :] = False
            adjacency[:, ~visible] = False

        if self.fov is not None:
            in_cone = angular_separation(centers, facing) \
                <= self.fov / 2.0 + half_widths
            in_cone[target] = True
            adjacency[~in_cone, :] = False
            adjacency[:, ~in_cone] = False

        return StaticOcclusionGraph(
            target=target,
            adjacency=adjacency,
            distances=distances,
            centers=centers,
            half_widths=half_widths,
            body_radius=self.body_radius,
        )

    def convert_trajectory(self, trajectory: np.ndarray,
                           target: int) -> list[StaticOcclusionGraph]:
        """Convert a ``(T, N, 2)`` trajectory into per-step static graphs."""
        trajectory = np.asarray(trajectory, dtype=np.float64)
        if trajectory.ndim != 3:
            raise ValueError(f"expected (T,N,2) trajectory, got {trajectory.shape}")
        return [self.convert(trajectory[t], target)
                for t in range(trajectory.shape[0])]


def arc_intersection_matrix(arcs: list[Arc]) -> np.ndarray:
    """Pairwise intersection matrix for a list of :class:`Arc` objects."""
    centers = np.array([a.center for a in arcs])
    half_widths = np.array([a.half_width for a in arcs])
    return arcs_intersect(centers, half_widths)


def build_frame(t: int, target: int, graph: StaticOcclusionGraph,
                preference_row: np.ndarray, presence_row: np.ndarray,
                interfaces_mr: np.ndarray) -> Frame:
    """Assemble a frame from raw scenario data (MIA preprocessing)."""
    interfaces_mr = np.asarray(interfaces_mr, dtype=bool)
    forced = forced_presence_mask(interfaces_mr, target)
    cover = physical_cover([graph.adjacency], graph.distances[None],
                           forced[None], graph.body_radius)[0]
    blocked = cover & ~forced
    blocked[target] = False

    mask = np.ones(graph.num_users, dtype=np.float64)
    mask[target] = 0.0
    mask[blocked] = 0.0

    raw_preference = np.asarray(preference_row, dtype=np.float64).copy()
    raw_presence = np.asarray(presence_row, dtype=np.float64).copy()
    raw_preference[target] = 0.0
    raw_presence[target] = 0.0

    preference_row = raw_preference.copy()
    presence_row = raw_presence.copy()
    # MIA prunes physically occluded users by zeroing their utilities.
    preference_row[blocked] = 0.0
    presence_row[blocked] = 0.0

    return Frame(
        t=t,
        target=target,
        graph=graph,
        preference=preference_row,
        presence=presence_row,
        preference_hat=distance_normalise(preference_row, graph.distances),
        presence_hat=distance_normalise(presence_row, graph.distances),
        distances=graph.distances,
        interfaces_mr=interfaces_mr,
        forced=forced,
        blocked=blocked,
        forced_occluded=cover & forced,
        mask=mask,
        raw_preference=raw_preference,
        raw_presence=raw_presence,
    )


def frame_from_graph(problem: AfterProblem, t: int,
                     graph: StaticOcclusionGraph) -> Frame:
    """``problem``'s step-``t`` frame around ``graph``, lists applied."""
    frame = build_frame(
        t=t,
        target=problem.target,
        graph=graph,
        preference_row=problem.room.preference[problem.target],
        presence_row=problem.room.presence[problem.target],
        interfaces_mr=problem.room.interfaces_mr,
    )
    if problem.blocklist or problem.allowlist is not None:
        problem._apply_lists(frame)
    return frame


def resolve_visibility(graph: StaticOcclusionGraph, rendered: np.ndarray,
                       forced: np.ndarray | None = None,
                       depth_margin: float | None = None) -> np.ndarray:
    """Compute ``1[v => w]`` for every present user ``w``.

    Semantics (derived from the paper's Theorem 1, whose utility equals
    the weight of an *independent set* in the occlusion graph, plus its
    hybrid-participation anecdotes):

    * **avatar vs avatar** — symmetric and depth-free: two rendered
      virtual users whose arcs overlap clutter each other, and *neither*
      is clearly seen.  (This is exactly why "render everyone" fails in
      a crowded room.)
    * **avatar vs physical person** — depth compositing: a meaningfully
      nearer avatar is drawn over a physical participant (Fig. 2b:
      "recommends user C to occlude the irrelevant co-located user D"),
      while a meaningfully nearer physical person hides an avatar behind
      them.
    * **physical vs physical** — real optics: the meaningfully nearer
      person occludes.

    "Meaningfully nearer" means nearer by at least ``depth_margin``
    (default: one body radius) — two people shoulder to shoulder both
    stay recognisable.

    Parameters
    ----------
    graph:
        The static occlusion graph at the current step.
    rendered:
        Boolean mask of users returned by the recommender.
    forced:
        Boolean mask of physically present users (may overlap rendered).

    Returns
    -------
    Boolean array: True where ``w`` is present and clearly seen.  The
    target's own entry is always False.
    """
    rendered = np.asarray(rendered, dtype=bool)
    if forced is None:
        forced = np.zeros_like(rendered)
    forced = np.asarray(forced, dtype=bool).copy()
    if depth_margin is None:
        depth_margin = graph.body_radius

    forced[graph.target] = False
    virtual = rendered.copy()
    virtual[graph.target] = False
    virtual &= ~forced
    present = virtual | forced

    visible = present.copy()
    idx = np.nonzero(present)[0]
    if idx.size == 0:
        return visible

    adjacency = graph.adjacency
    distances = graph.distances
    nearer = distances[None, :] < distances[:, None] - depth_margin

    # Avatar cluttered by any other rendered avatar (symmetric).
    clutter = (adjacency & virtual[None, :]).any(axis=1) & virtual
    # Avatar hidden behind a meaningfully nearer physical person.
    behind_physical = (adjacency & forced[None, :] & nearer).any(axis=1) \
        & virtual
    # Physical person occluded by a nearer physical person or covered by
    # a nearer rendered avatar.
    covered = (adjacency & (forced | virtual)[None, :] & nearer).any(axis=1) \
        & forced

    visible &= ~(clutter | behind_physical | covered)
    return visible


def occlusion_rate(graph: StaticOcclusionGraph, rendered: np.ndarray,
                   forced: np.ndarray | None = None) -> float:
    """Fraction of *recommended* users that end up occluded at this step.

    This is the per-step "View Occlusion (%)" metric from the paper's
    result tables; an empty recommendation contributes 0.
    """
    rendered = np.asarray(rendered, dtype=bool).copy()
    rendered[graph.target] = False
    total = int(rendered.sum())
    if total == 0:
        return 0.0
    visible = resolve_visibility(graph, rendered, forced)
    occluded = int((rendered & ~visible).sum())
    return occluded / total


def physically_blocked_mask(graph: StaticOcclusionGraph,
                            forced: np.ndarray) -> np.ndarray:
    """Non-forced users behind a meaningfully nearer forced user: the
    dense resolver's ``behind_physical`` term, MIA's pruning set."""
    forced = np.asarray(forced, dtype=bool)
    distances = graph.distances
    nearer = distances[None, :] < distances[:, None] - graph.body_radius
    blocked = (graph.adjacency & forced[None, :] & nearer).any(axis=1)
    blocked[forced] = False
    blocked[graph.target] = False
    return blocked


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
    converter = OcclusionGraphConverter(
        body_radius=problem.room.body_radius)
    positions = problem.room.trajectory.positions
    accumulator = UtilityAccumulator(problem.beta)
    occlusion_rates: list[float] = []
    runtimes: list[float] = []
    recommendations = np.zeros(
        (problem.horizon + 1, problem.num_users), dtype=bool)
    visible_previous = np.zeros(problem.num_users, dtype=bool)

    for t in range(problem.horizon + 1):
        graph = converter.convert(positions[t], problem.target)
        frame = frame_from_graph(problem, t, graph)
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
