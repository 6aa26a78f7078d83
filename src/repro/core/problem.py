"""The AFTER problem instance (paper Definition 3).

An :class:`AfterProblem` fixes one conference-room episode, one target
user, the preference/presence trade-off ``beta``, and a display budget
``max_render`` (XR headsets render a bounded number of avatars; ranking
baselines in the paper likewise "recommend the top-k users").  It lazily
produces the per-step :class:`~repro.core.scene.Frame` sequence that
recommenders consume.
"""

from __future__ import annotations

import numpy as np

from ..datasets.base import ConferenceRoom
from .scene import Frame, build_episode_frames

__all__ = ["AfterProblem", "DEFAULT_BETA", "DEFAULT_MAX_RENDER"]

DEFAULT_BETA = 0.5        # paper Sec. V-A5
DEFAULT_MAX_RENDER = 8    # display budget per step


class AfterProblem:
    """One AFTER optimisation instance for a single target user.

    Parameters
    ----------
    blocklist:
        Users never rendered for this target (paper footnote 8: "an
        inter-user blocklist ... achieved by a slight modification of the
        MIA mask").  Physically present MR users can still be *seen*
        (they cannot be derendered) but are excluded from recommendation.
    allowlist:
        When given, only these users may ever be recommended.
    """

    def __init__(self, room: ConferenceRoom, target: int,
                 beta: float = DEFAULT_BETA,
                 max_render: int = DEFAULT_MAX_RENDER,
                 blocklist=None, allowlist=None):
        if not 0 <= target < room.num_users:
            raise IndexError(f"target {target} out of range")
        if not 0.0 <= beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")
        if max_render < 1:
            raise ValueError("max_render must be positive")
        self.room = room
        self.target = target
        self.beta = beta
        self.max_render = max_render
        self.blocklist = frozenset(int(u) for u in (blocklist or ()))
        self.allowlist = (frozenset(int(u) for u in allowlist)
                          if allowlist is not None else None)
        for user in self.blocklist | (self.allowlist or frozenset()):
            if not 0 <= user < room.num_users:
                raise IndexError(f"listed user {user} out of range")
        if target in self.blocklist:
            raise ValueError("the target cannot block themselves")
        self._dog = None
        self._frames: list | None = None

    # ------------------------------------------------------------------
    @property
    def num_users(self) -> int:
        """Number of users in the room."""
        return self.room.num_users

    @property
    def horizon(self) -> int:
        """Maximal time label T (steps run 0..T inclusive)."""
        return self.room.horizon

    @property
    def dog(self):
        """The target's dynamic occlusion graph (built on first access).

        Laziness matters for streaming: a
        :class:`~repro.serving.RoomSession` binds a problem for its
        metadata and per-step frame assembly but never replays the full
        trajectory, so the whole-episode graph build must not run as a
        constructor side effect.
        """
        if self._dog is None:
            self._dog = self.room.dog(self.target)
        return self._dog

    def frame_at(self, t: int) -> Frame:
        """The frame for step ``t``, from :meth:`episode_frames`."""
        if not 0 <= t <= self.horizon:
            raise IndexError(f"step {t} outside horizon {self.horizon}")
        return self.episode_frames()[t]

    def _apply_lists(self, frame: Frame) -> None:
        """Fold the block/allow lists into MIA's mask (footnote 8)."""
        excluded = np.zeros(self.num_users, dtype=bool)
        if self.allowlist is not None:
            excluded[:] = True
            excluded[list(self.allowlist)] = False
        if self.blocklist:
            excluded[list(self.blocklist)] = True
        frame.mask[excluded] = 0.0
        frame.preference[excluded] = 0.0
        frame.presence[excluded] = 0.0
        frame.preference_hat[excluded] = 0.0
        frame.presence_hat[excluded] = 0.0

    def frames(self):
        """Iterate frames for t = 0..T."""
        for t in range(self.horizon + 1):
            yield self.frame_at(t)

    def episode_frames(self) -> list:
        """All frames for t = 0..T, built in one vectorised pass.

        Assembled via :func:`~repro.core.scene.build_episode_frames`;
        every offline consumer (:meth:`frame_at`, evaluation, training)
        reads these.  Plain problems share the room-level frame cache
        (frames depend only on room and target); block/allow-list
        problems build a private copy, because the list pruning mutates
        the frames.
        """
        if self._frames is None:
            if self.blocklist or self.allowlist is not None:
                frames = build_episode_frames(
                    target=self.target,
                    graphs=self.dog.snapshots,
                    preference_row=self.room.preference[self.target],
                    presence_row=self.room.presence[self.target],
                    interfaces_mr=self.room.interfaces_mr,
                )
                for frame in frames:
                    self._apply_lists(frame)
            else:
                frames = self.room.episode_frames(self.target)
            self._frames = frames
        return self._frames

    def adjacency(self, t: int) -> np.ndarray:
        """Float occlusion adjacency ``A_t`` (zeros for ``t < 0``)."""
        return self.dog.adjacency(t)

    def delta(self, t: int) -> np.ndarray:
        """MIA's structural-change embedding ``Delta_t``."""
        return self.dog.delta(t)
