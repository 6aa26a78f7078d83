"""Scenario containers shared by all dataset generators.

A :class:`ConferenceRoom` bundles everything one AFTER episode needs:
trajectories (tau), the social graph, the two utility matrices ``p`` and
``s``, per-user interfaces (MR = in-person / VR = remote), and the room
geometry.  The paper samples conference rooms out of large platform crawls
and simulates their movement with RVO2; generators in this package
produce rooms with matched statistics directly (DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..crowd import Trajectory
from ..geometry import BatchedOcclusionConverter, DEFAULT_BODY_RADIUS, \
    DynamicOcclusionGraph, Room
from ..obs import EVENTS, PERF
from ..social import SocialGraph

__all__ = ["RoomConfig", "ConferenceRoom", "assign_interfaces"]


@dataclass(frozen=True)
class RoomConfig:
    """Generation knobs for one conference-room episode.

    Defaults follow the paper's experimental setup: ``N = 200`` users,
    ``T = 100`` steps, a 50% proportion of VR (remote) users, and a
    packed conferencing room.  The paper quotes a "10 square meter
    virtual conferencing room" for 200 users, which is physically
    impossible once bodies cannot interpenetrate (200 half-metre bodies
    need > 40 m^2); ``room_side = None`` therefore sizes the room at
    maximum feasible crowding — ``AREA_PER_USER`` (0.3 m^2) per person,
    with the paper's 10 m^2 as the floor — which reproduces the paper's
    70-90% baseline occlusion rates.
    """

    AREA_PER_USER = 0.3   # m^2/person: a tightly packed reception crowd

    num_users: int = 200
    num_steps: int = 100
    vr_fraction: float = 0.5
    room_side: float | None = None
    body_radius: float = DEFAULT_BODY_RADIUS

    def __post_init__(self):
        if self.num_users < 2:
            raise ValueError("num_users must be at least 2")
        if self.num_steps < 1:
            raise ValueError("num_steps must be positive")
        if not 0.0 <= self.vr_fraction <= 1.0:
            raise ValueError("vr_fraction must be in [0, 1]")
        if self.room_side is not None and self.room_side <= 0:
            raise ValueError("room_side must be positive")

    @property
    def effective_room_side(self) -> float:
        """Room side in metres (crowding-derived unless pinned)."""
        if self.room_side is not None:
            return self.room_side
        area = max(10.0, self.AREA_PER_USER * self.num_users)
        return float(np.sqrt(area))


def assign_interfaces(num_users: int, vr_fraction: float,
                      rng: np.random.Generator) -> np.ndarray:
    """Boolean MR mask with an exact VR count (True = MR in-person)."""
    vr_count = int(round(num_users * vr_fraction))
    interfaces_mr = np.ones(num_users, dtype=bool)
    vr_users = rng.choice(num_users, size=vr_count, replace=False)
    interfaces_mr[vr_users] = False
    return interfaces_mr


@dataclass
class ConferenceRoom:
    """One social-XR videoconferencing episode."""

    name: str
    trajectory: Trajectory
    social: SocialGraph
    preference: np.ndarray       # (N, N) p(v, w)
    presence: np.ndarray         # (N, N) s(v, w)
    interfaces_mr: np.ndarray    # (N,) True = MR (in-person)
    room: Room
    body_radius: float = DEFAULT_BODY_RADIUS
    seed: int = 0

    _dog_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _frame_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        count = self.trajectory.num_agents
        if self.social.num_users != count:
            raise ValueError("social graph size mismatch")
        for name in ("preference", "presence"):
            matrix = getattr(self, name)
            if matrix.shape != (count, count):
                raise ValueError(f"{name} must be ({count}, {count})")
            if matrix.min() < 0 or matrix.max() > 1:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.interfaces_mr.shape != (count,):
            raise ValueError("interfaces_mr length mismatch")

    # ------------------------------------------------------------------
    @property
    def num_users(self) -> int:
        """Number of participants in the room."""
        return self.trajectory.num_agents

    @property
    def horizon(self) -> int:
        """Maximal time label T."""
        return self.trajectory.horizon

    @property
    def mr_users(self) -> np.ndarray:
        """Indices of in-person (MR) participants."""
        return np.nonzero(self.interfaces_mr)[0]

    @property
    def vr_users(self) -> np.ndarray:
        """Indices of remote (VR) participants."""
        return np.nonzero(~self.interfaces_mr)[0]

    def dog(self, target: int) -> DynamicOcclusionGraph:
        """Dynamic occlusion graph for ``target`` (cached per target).

        A cache miss builds through :meth:`prebuild_dogs`, so every DOG
        of a room comes from the batched converter.
        """
        cached = self._dog_cache.get(target)
        if cached is None:
            PERF.count("cache.dog.miss")
            EVENTS.emit("cache.dog.miss", room=self.name,
                        target=int(target))
            self.prebuild_dogs([target])
            cached = self._dog_cache[target]
        else:
            PERF.count("cache.dog.hit")
        return cached

    def prebuild_dogs(self, targets) -> None:
        """Fill the DOG cache for many targets in one batched pass.

        All targets' ``(step, target)`` rows go through one
        :meth:`~repro.geometry.BatchedOcclusionConverter.convert_dogs`
        call at this room's body radius.
        """
        missing = np.array(sorted({int(t) for t in np.asarray(targets).ravel()}
                                  - set(self._dog_cache)), dtype=np.int64)
        if missing.size == 0:
            return
        PERF.count("cache.dog.prebuilt", int(missing.size))
        EVENTS.emit("cache.prebuild", room=self.name,
                    targets=int(missing.size))
        with PERF.scope("room.prebuild_dogs",
                        {"room": self.name, "targets": int(missing.size)}):
            converter = BatchedOcclusionConverter(
                body_radius=self.body_radius)
            self._dog_cache.update(
                converter.convert_dogs(self.trajectory.positions, missing))

    def episode_frames(self, target: int) -> list:
        """All frames of ``target``'s episode, built once and cached.

        Frames depend only on the room and the target (not on the
        recommender), so every evaluation of the same target shares
        them.  Callers that mutate frames — block/allow-list problems —
        must not use this cache; see
        :meth:`~repro.core.problem.AfterProblem.episode_frames`.
        """
        frames = self._frame_cache.get(target)
        if frames is None:
            PERF.count("cache.frames.miss")
            EVENTS.emit("cache.frames.miss", room=self.name,
                        target=int(target))
            from ..core.scene import build_episode_frames
            with PERF.scope("room.build_frames"):
                frames = build_episode_frames(
                    target=target,
                    graphs=self.dog(target).snapshots,
                    preference_row=self.preference[target],
                    presence_row=self.presence[target],
                    interfaces_mr=self.interfaces_mr,
                )
            self._frame_cache[target] = frames
        else:
            PERF.count("cache.frames.hit")
        return frames

    def clear_caches(self) -> None:
        """Drop cached DOGs and frames (e.g. after editing trajectories)."""
        self._dog_cache.clear()
        self._frame_cache.clear()

    def subset(self, users, *, name: str | None = None,
               interfaces_mr: np.ndarray | None = None) -> "ConferenceRoom":
        """A new room over a sub-roster of this room's users.

        ``users`` indexes this room; every per-user and pairwise field
        (trajectory, social graph, utility matrices, interfaces) is
        gathered along that roster, so two subsets of one *universe*
        room stay mutually consistent — the merge/split machinery of
        :mod:`repro.serving.workload` relies on exactly that to fuse
        rosters without inventing cross-room utilities.  ``interfaces_mr``
        overrides the gathered device flags (VR<->MR handoff).  Caches
        are not shared: the subset starts cold.
        """
        users = np.asarray(users, dtype=np.int64)
        if users.ndim != 1 or users.size < 2:
            raise ValueError("a sub-roster needs at least two users")
        if users.size != np.unique(users).size:
            raise ValueError("duplicate users in sub-roster")
        if users.min() < 0 or users.max() >= self.num_users:
            raise IndexError("sub-roster user out of range")
        if interfaces_mr is None:
            interfaces_mr = self.interfaces_mr[users].copy()
        else:
            interfaces_mr = np.asarray(interfaces_mr, dtype=bool).copy()
            if interfaces_mr.shape != (users.size,):
                raise ValueError("interfaces_mr length mismatch")
        pairwise = np.ix_(users, users)
        social = SocialGraph(self.social.adjacency[pairwise],
                             self.social.communities[users],
                             self.social.tie_strengths[pairwise])
        return ConferenceRoom(
            name=name if name is not None
            else f"{self.name}[{users.size}u]",
            trajectory=Trajectory(self.trajectory.positions[:, users]),
            social=social,
            preference=self.preference[pairwise].copy(),
            presence=self.presence[pairwise].copy(),
            interfaces_mr=interfaces_mr,
            room=self.room,
            body_radius=self.body_radius,
            seed=self.seed,
        )

    def sample_targets(self, count: int, rng: np.random.Generator
                       ) -> np.ndarray:
        """Sample distinct target users for evaluation."""
        count = min(count, self.num_users)
        return rng.choice(self.num_users, size=count, replace=False)
