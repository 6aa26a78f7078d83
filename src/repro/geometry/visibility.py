"""Visibility resolution: the indicator function ``1[v =t=> w]``.

A rendered user ``w`` is *clearly seen* by the target ``v`` at time ``t``
iff no **nearer** present user's arc overlaps ``w``'s arc.  "Present" means
either rendered by the recommender or physically forced — a co-located MR
participant is in the target's view whether recommended or not (paper
Sec. III-A, hybrid participation).

Virtual avatars can be drawn over physical people (Fig. 2b: AFTER
"recommends user C to occlude the irrelevant co-located user D"), so the
depth ordering treats rendered and forced users uniformly: whoever is
nearer occludes.
"""

from __future__ import annotations

import numpy as np

from .batched import stacked_rooms_field
from .occlusion import StaticOcclusionGraph

__all__ = ["resolve_visibility", "resolve_visibility_with_occlusion",
           "resolve_episode_visibility", "resolve_rooms_visibility",
           "occlusion_rate", "forced_presence_mask", "physical_cover",
           "physically_blocked_mask"]


def forced_presence_mask(interfaces_mr: np.ndarray, target: int) -> np.ndarray:
    """Users whose presence in ``target``'s view is physically forced.

    If the target uses MR, every co-located MR participant is visible in
    the pass-through view regardless of recommendations.  A VR target sees
    a fully virtual scene, so nothing is forced.
    """
    interfaces_mr = np.asarray(interfaces_mr, dtype=bool)
    forced = np.zeros_like(interfaces_mr)
    if interfaces_mr[target]:
        forced = interfaces_mr.copy()
    forced[target] = False
    return forced


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


def resolve_visibility_with_occlusion(graph: StaticOcclusionGraph,
                                      rendered: np.ndarray,
                                      forced: np.ndarray | None = None,
                                      depth_margin: float | None = None
                                      ) -> tuple:
    """``(resolve_visibility(...), occlusion_rate(...))`` in one pass.

    The evaluation hot path needs both the visibility indicator and the
    per-step occlusion rate for the *same* ``(graph, rendered, forced)``
    triple; calling :func:`resolve_visibility` and
    :func:`occlusion_rate` separately resolves visibility twice.  This
    function resolves once, and restricts every pairwise operation to
    the *present* users (at most ``max_render`` rendered avatars plus
    the forced MR participants) instead of all ``N`` — exactly
    equivalent, because every clutter/occlusion term is conjoined with a
    present-user mask, so absent rows and columns never contribute.

    Returns the boolean visibility array and the occlusion rate float,
    each identical to its standalone counterpart.
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
    if idx.size:
        sub_adjacency = graph.adjacency[np.ix_(idx, idx)]
        sub_distances = graph.distances[idx]
        sub_virtual = virtual[idx]
        sub_forced = forced[idx]
        nearer = sub_distances[None, :] < sub_distances[:, None] - depth_margin

        clutter = (sub_adjacency & sub_virtual[None, :]).any(axis=1) \
            & sub_virtual
        behind_physical = (sub_adjacency & sub_forced[None, :]
                           & nearer).any(axis=1) & sub_virtual
        covered = (sub_adjacency & (sub_forced | sub_virtual)[None, :]
                   & nearer).any(axis=1) & sub_forced
        visible[idx] = ~(clutter | behind_physical | covered)

    shown = rendered.copy()
    shown[graph.target] = False
    total = int(shown.sum())
    if total == 0:
        return visible, 0.0
    occluded = int((shown & ~visible).sum())
    return visible, occluded / total


def resolve_episode_visibility(graphs: list, rendered: np.ndarray,
                               forced: np.ndarray, blocked: np.ndarray,
                               forced_occluded: np.ndarray) -> tuple:
    """Visibility and occlusion rates for a whole episode at once.

    ``graphs`` is one target's snapshot list (length ``T``) and
    ``rendered`` the ``(T, N)`` boolean render masks; ``forced`` is the
    episode's ``(N,)`` forced-presence mask and ``blocked`` /
    ``forced_occluded`` are the ``(T, N)`` recommendation-independent
    masks its frames carry (``Frame.blocked``, ``Frame.forced_occluded``).
    Step ``t`` of the result equals ``resolve_visibility_with_occlusion(
    graphs[t], rendered[t], forced)`` exactly.  Returns ``(visible,
    rates)`` of shapes ``(T, N)`` and ``(T,)``.
    """
    first = graphs[0]
    return _resolve_display(
        [graph.adjacency for graph in graphs],
        np.stack([graph.distances for graph in graphs]), first.target,
        rendered, forced, blocked, forced_occluded, first.body_radius)


def resolve_rooms_visibility(graphs: list, rendered: np.ndarray,
                             forced: np.ndarray, blocked: np.ndarray,
                             forced_occluded: np.ndarray) -> tuple:
    """Visibility and occlusion rates across many *rooms* at one instant.

    The cross-room companion of :func:`resolve_episode_visibility`,
    used by the serving engine's micro-batches: row ``b`` of each
    ``(B, N)`` argument belongs to a different room (all rooms sharing
    ``num_users`` and ``body_radius`` — the engine groups them so), and
    row ``b`` of the result equals
    ``resolve_visibility_with_occlusion(graphs[b], rendered[b],
    forced[b])`` exactly.  An empty batch yields ``(0, N)`` / ``(0,)``.

    Returns ``(visible, rates)`` of shapes ``(B, N)`` and ``(B,)``.
    """
    rendered = np.asarray(rendered, dtype=bool)
    if not len(graphs):
        return np.zeros(rendered.shape, dtype=bool), np.zeros(0)
    targets = np.array([graph.target for graph in graphs], dtype=np.int64)
    return _resolve_display(
        [graph.adjacency for graph in graphs],
        stacked_rooms_field(graphs, "distances"), targets, rendered,
        forced, blocked, forced_occluded, graphs[0].body_radius)


def _resolve_display(adjacency, distances: np.ndarray, targets,
                     rendered: np.ndarray, forced: np.ndarray,
                     blocked: np.ndarray, forced_occluded: np.ndarray,
                     depth_margin: float) -> tuple:
    """The batched visibility kernel: ``B`` frames in O(B · R · N).

    Row ``b`` equals ``resolve_visibility_with_occlusion`` on frame
    ``b`` exactly; every term is boolean algebra over the dense
    resolver's, split by who occludes whom:

    * physical × physical — ``forced_occluded``, and avatar behind a
      physical person — ``blocked`` on the virtual rows: both are
      independent of the recommendation, so the frame builders compute
      them once (:func:`physical_cover`);
    * what is left involves a rendered avatar, so only the ``R``
      virtual rows of each adjacency are read: avatar clutter among
      them, and a forced user covered by a nearer avatar.

    Reading rows for columns requires a symmetric adjacency, which
    both occlusion-graph converters produce.  ``adjacency`` is any
    length-``B`` sequence of ``(N, N)`` matrices; ``targets`` one
    target per row or a single shared one.
    """
    shown = np.array(rendered, dtype=bool)
    shown[np.arange(shown.shape[0]), targets] = False
    forced = np.asarray(forced, dtype=bool)
    virtual = shown & ~forced
    rows, nearer = _occluder_rows(adjacency, distances, virtual,
                                  depth_margin)
    clutter = rows.any(axis=1) & virtual
    overdrawn = (rows & nearer).any(axis=1) & forced
    visible = (virtual & ~blocked & ~clutter) \
        | (forced & ~forced_occluded & ~overdrawn)

    total = shown.sum(axis=1)
    occluded = (shown & ~visible).sum(axis=1)
    rates = np.zeros(shown.shape[0], dtype=np.float64)
    np.divide(occluded, total, out=rates, where=total > 0)
    return visible, rates


def _occluder_rows(adjacency, distances: np.ndarray,
                   occluders: np.ndarray, depth_margin: float) -> tuple:
    """Each frame's occluder rows of the adjacency, and their depth order.

    Returns ``(rows, nearer)`` of shape ``(B, K, N)``, ``K`` the widest
    occluder set: ``rows[b, k]`` is the adjacency row of frame ``b``'s
    ``k``-th occluder (ascending; padded slots are all False) and
    ``nearer[b, k, w]`` holds where that occluder is meaningfully nearer
    than ``w`` — the same float compare as the dense resolver's
    ``nearer[w, k]``.  By symmetry ``rows.any(axis=1)[b, w]`` is "some
    occluder's arc meets ``w``'s", at O(K · N) instead of O(N²).
    """
    occluders = np.asarray(occluders, dtype=bool)
    width = int(occluders.sum(axis=1).max(initial=0))
    order = np.argsort(~occluders, axis=1, kind="stable")[:, :width]
    lanes = np.arange(order.shape[0])[:, None]
    rows = np.empty(order.shape + occluders.shape[1:], dtype=bool)
    for row, matrix, index in zip(rows, adjacency, order):
        np.take(matrix, index, axis=0, out=row)
    rows &= occluders[lanes, order][:, :, None]
    nearer = distances[lanes, order][:, :, None] \
        < distances[:, None, :] - depth_margin
    return rows, nearer


def physical_cover(adjacency, distances: np.ndarray, forced: np.ndarray,
                   depth_margin: float) -> np.ndarray:
    """Users covered by a meaningfully nearer physically present user.

    ``adjacency`` is a length-``B`` sequence of ``(N, N)`` matrices and
    ``distances``/``forced`` are ``(B, N)``; returns the ``(B, N)``
    mask.  Independent of the recommendation, so frame assembly
    computes it once per frame: its non-forced rows are MIA's
    ``blocked`` set (and the "avatar behind a physical person" term),
    its forced rows the "physical person behind a physical person"
    term of :func:`resolve_visibility`.
    """
    cover = np.zeros(distances.shape, dtype=bool)
    # Frames of VR targets force no one: skip them instead of padding
    # them to the widest forced set of a mixed batch.
    some = np.flatnonzero(forced.any(axis=1))
    if not some.size:
        return cover
    rows, nearer = _occluder_rows([adjacency[b] for b in some],
                                  distances[some], forced[some],
                                  depth_margin)
    cover[some] = (rows & nearer).any(axis=1)
    return cover


def physically_blocked_mask(graph: StaticOcclusionGraph,
                            forced: np.ndarray,
                            depth_margin: float | None = None) -> np.ndarray:
    """Users that can never be seen because a physical user blocks them.

    MIA prunes these candidates: rendering a user whose arc is covered by a
    *nearer co-located MR participant* is ineffective, since the physical
    person cannot be derendered.  Forced users themselves are not marked.
    """
    forced = np.asarray(forced, dtype=bool)
    if depth_margin is None:
        depth_margin = graph.body_radius
    blocked = physical_cover([graph.adjacency], graph.distances[None],
                             forced[None], depth_margin)[0]
    blocked[forced] = False
    blocked[graph.target] = False
    return blocked


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
