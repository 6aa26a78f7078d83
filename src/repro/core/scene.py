"""Per-step frames: everything a recommender sees at time ``t``.

A :class:`Frame` is the assembled, target-centric view of the room at one
time step — the occlusion graph, the target's utility rows, distances,
interfaces, the forced-presence mask and the physical-occlusion masks.
Frame assembly implements the *input side* of MIA (paper Sec. IV-A): the
distance-normalised utilities ``p_hat``/``s_hat`` and the hybrid-
participation mask ``m_t``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry import StaticOcclusionGraph, forced_presence_mask, \
    physical_cover
from ..geometry.batched import stacked_rooms_field

__all__ = ["Frame", "build_frame", "build_episode_frames",
           "build_room_frames", "distance_normalise"]


def distance_normalise(utilities: np.ndarray, distances: np.ndarray,
                       scale: float | None = None) -> np.ndarray:
    """Normalise a utility row by squared *relative* distance.

    The paper's MIA normalises utilities "with the square of the current
    distance" so the model is not dominated by proximity.  We use
    ``u / (1 + (d / scale)^2)`` with ``scale`` the frame's maximal
    distance: unit-invariant (the paper's rooms are metres, ours may not
    be) and bounded — a far user keeps at least half its utility, with
    hard de-occlusion left to the loss's occlusion penalty rather than
    double-counted through distance.
    """
    utilities = np.asarray(utilities, dtype=np.float64)
    distances = np.asarray(distances, dtype=np.float64)
    if scale is None:
        scale = float(distances.max())
    scale = max(scale, 1e-9)
    return utilities / (1.0 + (distances / scale) ** 2)


@dataclass
class Frame:
    """The target-centric scene at one time step.

    Attributes
    ----------
    t:
        Time step index.
    target:
        Target user ``v``.
    graph:
        Static occlusion graph ``O_t^v``.
    preference / presence:
        Raw utility rows ``p(v, .)`` and ``s(v, .)`` in [0, 1].
    preference_hat / presence_hat:
        Distance-normalised utilities (the loss operands).
    distances:
        Distance from the target to each user.
    interfaces_mr:
        True where a user is an in-person MR participant.
    forced:
        Users physically present in the target's view regardless of
        recommendation.
    blocked:
        Users that can never be seen (physically occluded by a nearer MR
        participant) — MIA's pruning set.
    forced_occluded:
        Forced users hidden behind a nearer forced user — the
        recommendation-independent physical term of visibility.
    mask:
        MIA's hybrid-participation mask ``m_t``: 1 for valid candidates,
        0 for the target and blocked users.
    """

    t: int
    target: int
    graph: StaticOcclusionGraph
    preference: np.ndarray
    presence: np.ndarray
    preference_hat: np.ndarray
    presence_hat: np.ndarray
    distances: np.ndarray
    interfaces_mr: np.ndarray
    forced: np.ndarray
    blocked: np.ndarray
    forced_occluded: np.ndarray
    mask: np.ndarray
    raw_preference: np.ndarray = None
    raw_presence: np.ndarray = None

    @property
    def num_users(self) -> int:
        """Number of users in the scene."""
        return self.distances.shape[0]

    def candidates(self) -> np.ndarray:
        """Indices of users the recommender may usefully render."""
        return np.nonzero(self.mask > 0)[0]

    def features(self) -> np.ndarray:
        """MIA's node features ``x_hat_t``: ``[p_hat, s_hat, dist, MR]``.

        Distance is scaled by its frame maximum so all four channels are
        in [0, 1].
        """
        scale = max(float(self.distances.max()), 1e-9)
        return np.column_stack([
            self.preference_hat,
            self.presence_hat,
            self.distances / scale,
            self.interfaces_mr.astype(np.float64),
        ])

    def raw_features(self) -> np.ndarray:
        """Node features *without* MIA's normalisation and pruning.

        Used by ablation variants and baselines that lack the MIA module:
        ``[p, s, dist, MR]`` with the unpruned utility rows.
        """
        scale = max(float(self.distances.max()), 1e-9)
        return np.column_stack([
            self.raw_preference,
            self.raw_presence,
            self.distances / scale,
            self.interfaces_mr.astype(np.float64),
        ])


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


def build_episode_frames(target: int, graphs: list,
                         preference_row: np.ndarray,
                         presence_row: np.ndarray,
                         interfaces_mr: np.ndarray) -> list:
    """Assemble every frame of an episode in a few vectorised passes.

    Semantically identical to calling :func:`build_frame` once per
    snapshot in ``graphs`` — the per-step masks and normalised utilities
    are computed with the same elementwise operations, broadcast over
    the time axis — but roughly an order of magnitude cheaper in Python
    dispatch.  Each returned :class:`Frame` owns its row of the episode
    arrays, so per-frame mutation (e.g. block/allow-list pruning) stays
    frame-local; the ``forced`` mask and ``interfaces_mr`` are constant
    over the episode and shared across frames.
    """
    interfaces_mr = np.asarray(interfaces_mr, dtype=bool)
    forced = forced_presence_mask(interfaces_mr, target)
    steps = len(graphs)
    count = graphs[0].num_users

    distances = np.stack([graph.distances for graph in graphs])   # (T, N)
    cover = physical_cover([graph.adjacency for graph in graphs], distances,
                           np.broadcast_to(forced, distances.shape),
                           graphs[0].body_radius)
    blocked = cover & ~forced
    blocked[:, target] = False
    forced_occluded = cover & forced

    mask = np.empty((steps, count))
    mask.fill(1.0)
    mask[:, target] = 0.0
    mask[blocked] = 0.0

    raw_preference = np.empty((steps, count))
    raw_presence = np.empty((steps, count))
    raw_preference[:] = np.asarray(preference_row, dtype=np.float64)[None, :]
    raw_presence[:] = np.asarray(presence_row, dtype=np.float64)[None, :]
    raw_preference[:, target] = 0.0
    raw_presence[:, target] = 0.0

    preference = np.empty((steps, count))
    presence = np.empty((steps, count))
    preference[:] = raw_preference
    presence[:] = raw_presence
    preference[blocked] = 0.0
    presence[blocked] = 0.0

    # distance_normalise, broadcast over steps (same elementwise ops).
    scale = np.maximum(distances.max(axis=1), 1e-9)[:, None]
    damping = 1.0 + (distances / scale) ** 2
    preference_hat = np.divide(preference, damping,
                               out=np.empty((steps, count)))
    presence_hat = np.divide(presence, damping,
                             out=np.empty((steps, count)))

    return [
        Frame(
            t=t,
            target=target,
            graph=graphs[t],
            preference=preference[t],
            presence=presence[t],
            preference_hat=preference_hat[t],
            presence_hat=presence_hat[t],
            distances=graphs[t].distances,
            interfaces_mr=interfaces_mr,
            forced=forced,
            blocked=blocked[t],
            forced_occluded=forced_occluded[t],
            mask=mask[t],
            raw_preference=raw_preference[t],
            raw_presence=raw_presence[t],
        )
        for t in range(steps)
    ]


def build_room_frames(ts, targets, graphs, preference_rows,
                      presence_rows, interfaces_rows) -> list:
    """Assemble one frame per *room* in a few broadcast passes.

    The cross-room companion of :func:`build_episode_frames`: element
    ``b`` of every argument describes a *different* room at one instant
    — its step index, target, occlusion graph (all graphs must share
    ``num_users`` and ``body_radius``; the serving engine groups rooms
    accordingly), the target's raw utility rows and the room's interface
    mask.  Frame ``b`` of the result is identical to
    ``build_frame(ts[b], targets[b], graphs[b], ...)``: the same
    elementwise operations run over a broadcast leading room axis, and
    forced/blocked are boolean so broadcasting cannot perturb them.
    Each frame owns its row of the batched arrays, so downstream
    per-frame mutation (block/allow-list pruning) stays frame-local.
    """
    rooms = len(graphs)
    targets = np.asarray(targets, dtype=np.int64)
    rows = np.arange(rooms)
    interfaces = np.asarray(interfaces_rows, dtype=bool)

    # forced_presence_mask, broadcast: all co-located MR users iff the
    # target itself is MR, never the target.
    forced = interfaces & interfaces[rows, targets][:, None]
    forced[rows, targets] = False

    distances = stacked_rooms_field(graphs, "distances")
    cover = physical_cover([graph.adjacency for graph in graphs],
                           distances, forced, graphs[0].body_radius)
    blocked = cover & ~forced
    blocked[rows, targets] = False
    forced_occluded = cover & forced

    mask = np.empty((rooms, distances.shape[1]))
    mask.fill(1.0)
    mask[rows, targets] = 0.0
    mask[blocked] = 0.0

    raw_preference = np.empty((rooms, distances.shape[1]))
    raw_presence = np.empty((rooms, distances.shape[1]))
    raw_preference[:] = np.array(preference_rows, dtype=np.float64)
    raw_presence[:] = np.array(presence_rows, dtype=np.float64)
    raw_preference[rows, targets] = 0.0
    raw_presence[rows, targets] = 0.0

    preference = raw_preference.copy()
    presence = raw_presence.copy()
    preference[blocked] = 0.0
    presence[blocked] = 0.0

    # distance_normalise, broadcast over rooms (same elementwise ops,
    # one per-room scale).
    scale = np.maximum(distances.max(axis=1), 1e-9)[:, None]
    damping = 1.0 + (distances / scale) ** 2
    preference_hat = preference / damping
    presence_hat = presence / damping

    return [
        Frame(
            t=int(ts[b]),
            target=int(targets[b]),
            graph=graphs[b],
            preference=preference[b],
            presence=presence[b],
            preference_hat=preference_hat[b],
            presence_hat=presence_hat[b],
            distances=graphs[b].distances,
            interfaces_mr=interfaces[b],
            forced=forced[b],
            blocked=blocked[b],
            forced_occluded=forced_occluded[b],
            mask=mask[b],
            raw_preference=raw_preference[b],
            raw_presence=raw_presence[b],
        )
        for b in range(rooms)
    ]
