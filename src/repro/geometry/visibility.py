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

__all__ = ["resolve_visibility", "resolve_episode_visibility",
           "resolve_rooms_visibility", "forced_presence_mask",
           "physical_cover"]


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
                       forced: np.ndarray | None = None) -> np.ndarray:
    """``1[v => w]`` for every user ``w`` at one frame.

    ``rendered`` is the recommender's mask and ``forced`` the physically
    present users (may overlap ``rendered``; default none).  True where
    ``w`` is present and clearly seen, never for the target itself.  The
    one-frame entry over the batched kernel (see :func:`_resolve_display`
    for the depth rules); the graph's adjacency must be symmetric, as
    every converter-built graph is.
    """
    rendered = np.asarray(rendered, dtype=bool)
    forced = np.zeros(rendered.shape, dtype=bool) if forced is None \
        else np.array(forced, dtype=bool)
    forced[graph.target] = False
    adjacency, distances = [graph.adjacency], graph.distances[None]
    cover = physical_cover(adjacency, distances, forced[None],
                           graph.body_radius)
    return _resolve_display(adjacency, distances, graph.target,
                            rendered[None], forced[None], cover & ~forced,
                            cover & forced, graph.body_radius)[0][0]


def resolve_episode_visibility(graphs: list, rendered: np.ndarray,
                               forced: np.ndarray, blocked: np.ndarray,
                               forced_occluded: np.ndarray) -> tuple:
    """Visibility and occlusion rates for a whole episode at once.

    ``graphs`` is one target's snapshot list (length ``T``) and
    ``rendered`` the ``(T, N)`` boolean render masks; ``forced`` is the
    episode's ``(N,)`` forced-presence mask and ``blocked`` /
    ``forced_occluded`` are the ``(T, N)`` recommendation-independent
    masks its frames carry (``Frame.blocked``, ``Frame.forced_occluded``).
    Step ``t`` of the result is frame ``t`` resolved alone.  Returns
    ``(visible, rates)`` of shapes ``(T, N)`` and ``(T,)``.
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
    row ``b`` of the result is room ``b`` resolved alone.  An empty
    batch yields ``(0, N)`` / ``(0,)``.

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
    """The visibility kernel: ``B`` frames in O(B · R · N).

    Returns ``(visible, rates)``: per frame, ``visible[b, w]`` is
    ``1[v => w]`` and ``rates[b]`` the per-step "View Occlusion (%)"
    metric of the paper's tables, the fraction of *rendered* users
    (target excluded) that are not clearly seen; an empty
    recommendation contributes 0.

    Semantics (derived from the paper's Theorem 1, whose utility equals
    the weight of an *independent set* in the occlusion graph, plus its
    hybrid-participation anecdotes).  A user is *present* if rendered
    (a virtual avatar) or forced (physically there); a forced user
    counts as physical even when also rendered, and the target never
    counts.  A present user is clearly seen unless:

    * **avatar vs avatar** — symmetric and depth-free: two rendered
      virtual users whose arcs overlap clutter each other, and
      *neither* is clearly seen.  (This is exactly why "render
      everyone" fails in a crowded room.)
    * **avatar vs physical person** — depth compositing: a meaningfully
      nearer avatar is drawn over a physical participant (Fig. 2b:
      "recommends user C to occlude the irrelevant co-located user
      D"), while a meaningfully nearer physical person hides an avatar
      behind them.
    * **physical vs physical** — real optics: the meaningfully nearer
      person occludes.

    "Meaningfully nearer" means nearer by at least ``depth_margin``
    (one body radius) — two people shoulder to shoulder both stay
    recognisable.

    The terms split by who occludes whom:

    * physical × physical — ``forced_occluded``, and avatar behind a
      physical person — ``blocked`` on the virtual rows: both are
      independent of the recommendation, so frame assembly computes
      them once (:func:`physical_cover`);
    * what is left involves a rendered avatar, so only the ``R``
      virtual rows of each adjacency are read: avatar clutter among
      them, and a forced user covered by a nearer avatar.

    Reading rows for columns requires a symmetric adjacency, which the
    occlusion-graph converter produces.  ``adjacency`` is any length-``B``
    sequence of ``(N, N)`` matrices; ``targets`` one target per row or
    a single shared one.  ``tests/oracles.py`` holds the dense
    O(N²)-per-frame resolver these rules were first written as, and the
    suites check every row against it.
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
    than ``w``: ``d[k] < d[w] - depth_margin``.  By symmetry
    ``rows.any(axis=1)[b, w]`` is "some occluder's arc meets ``w``'s",
    at O(K · N) instead of O(N²).
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
    term of :func:`_resolve_display`.
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
