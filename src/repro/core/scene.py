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

from ..geometry import StaticOcclusionGraph, physical_cover
from ..geometry.batched import stacked_rooms_field

__all__ = ["Frame", "build_episode_frames", "build_room_frames",
           "distance_normalise"]


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


def build_episode_frames(target: int, graphs: list,
                         preference_row: np.ndarray,
                         presence_row: np.ndarray,
                         interfaces_mr: np.ndarray) -> list:
    """Every frame of ``target``'s episode: :func:`build_room_frames`
    over the ``T`` steps of ``graphs`` (one DOG's snapshots), each row
    sharing the target's utility rows and the room's interfaces."""
    steps = len(graphs)
    count = graphs[0].num_users
    return build_room_frames(
        range(steps), np.full(steps, target), graphs,
        np.broadcast_to(preference_row, (steps, count)),
        np.broadcast_to(presence_row, (steps, count)),
        np.broadcast_to(np.asarray(interfaces_mr, dtype=bool),
                        (steps, count)))


def build_room_frames(ts, targets, graphs, preference_rows,
                      presence_rows, interfaces_rows) -> list:
    """Assemble one frame per row in a few broadcast passes (MIA
    preprocessing).

    Element ``b`` of every argument describes one frame: its step index,
    target, occlusion graph (all graphs must share ``num_users`` and
    ``body_radius``; the serving engine groups rooms accordingly), the
    target's raw utility rows and the room's interface mask.  Rows may
    be different rooms at one instant (the serving engine), one room (a
    streamed step) or one target's episode (:func:`build_episode_frames`).
    Per row: the forced users are every co-located MR participant iff
    the target is MR; ``blocked`` users sit behind a nearer forced user
    and are pruned from the mask and utilities; the utilities are
    distance-normalised.  Each frame owns its row of the batched arrays,
    so downstream per-frame mutation (block/allow-list pruning) stays
    frame-local.
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
    raw_preference[:] = np.asarray(preference_rows, dtype=np.float64)
    raw_presence[:] = np.asarray(presence_rows, dtype=np.float64)
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
