"""Dynamic occlusion graphs (paper Definition 4).

A DOG ``O^v = (V, E^v, T)`` is the sequence of static occlusion graphs a
target user sees over a traced horizon.  Besides container behaviour, this
module computes MIA's structural-difference features, :func:`structural_delta`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .occlusion import StaticOcclusionGraph

__all__ = ["DynamicOcclusionGraph", "structural_delta"]


def structural_delta(current: np.ndarray,
                     previous: np.ndarray | None = None) -> np.ndarray:
    """MIA's ``(N, 3)`` structural-change embedding ``[1 || e^1 || e^2]``.

    ``e^k = (A_t^k - A_{t-1}^k) 1``; ``previous=None`` is the all-zero
    ``A_{t-1}`` at ``t = 0``.  O(N^2), from degree vectors: ``d = A_t 1``,
    ``e^1 = d - d_prev`` and ``e^2 = A_t d - A_{t-1} d_prev``.  For 0/1
    adjacency every intermediate is an integer below ``2^53``, so each sum is
    exact in any order: bit-identical to the dense ``(A_t^2 - A_{t-1}^2) 1``.
    """
    return _delta_and_degree(current, previous)[0]


def _delta_and_degree(current, previous):  # MIA reuses the degree ``A_t 1``
    current = np.asarray(current, dtype=np.float64)
    ones = np.ones(len(current))
    degree = current @ ones
    e1, e2 = degree, current @ degree
    if previous is not None:
        previous = np.asarray(previous, dtype=np.float64)
        if current.shape != previous.shape:
            raise ValueError("adjacency shapes differ")
        previous_degree = previous @ ones
        e1, e2 = degree - previous_degree, e2 - previous @ previous_degree
    return np.column_stack([ones, e1, e2]), degree


@dataclass
class DynamicOcclusionGraph:
    """Sequence of static occlusion graphs for one target user."""

    target: int
    snapshots: list

    def __post_init__(self):
        if not self.snapshots:
            raise ValueError("a DOG needs at least one snapshot")
        for snap in self.snapshots:
            if snap.target != self.target:
                raise ValueError("snapshot target mismatch")

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.snapshots)

    def __getitem__(self, t: int) -> StaticOcclusionGraph:
        return self.snapshots[t]

    def __iter__(self):
        return iter(self.snapshots)

    @property
    def horizon(self) -> int:
        """Maximal time label T (zero-based snapshots => T = len - 1)."""
        return len(self.snapshots) - 1

    @property
    def num_users(self) -> int:
        """Number of users in every snapshot."""
        return self.snapshots[0].num_users

    # ------------------------------------------------------------------
    # Temporal structure
    # ------------------------------------------------------------------
    def adjacency(self, t: int) -> np.ndarray:
        """Float adjacency ``A_t`` (all-zero for ``t < 0``)."""
        if t < 0:
            return np.zeros((self.num_users, self.num_users))
        return self.snapshots[t].adjacency_float()

    def delta(self, t: int) -> np.ndarray:
        """``Delta_t`` structural-change embedding at step ``t``."""
        return structural_delta(self.adjacency(t),
                                None if t <= 0 else self.adjacency(t - 1))

    def edge_change_counts(self) -> np.ndarray:
        """Number of edge insertions+deletions between consecutive steps.

        Useful for validating that simulated crowds produce *gradually*
        changing occlusion graphs — the property POSHGNN's intertemporal
        optimisation relies on (paper challenge C2).
        """
        changes = []
        for t in range(1, len(self.snapshots)):
            diff = self.adjacency(t) != self.adjacency(t - 1)
            changes.append(int(diff.sum()) // 2)
        return np.array(changes, dtype=np.int64)

    def mean_edge_density(self) -> float:
        """Average fraction of possible pairs occluding over the horizon."""
        n = self.num_users
        possible = n * (n - 1) / 2.0
        if possible == 0:
            return 0.0
        return float(np.mean([snap.num_edges / possible for snap in self.snapshots]))
