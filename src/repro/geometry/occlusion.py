"""Static occlusion graphs (paper Sec. III-B).

At one time instance the target user ``v`` sits at the centre of a
circle, every surrounding user occupies an arc of ``v``'s 360-degree
view, and two users are connected whenever their arcs intersect.  The
result — a circular-arc graph plus the isolated node ``v`` — is the
*static occlusion graph* ``O_t^v = (V, E_t^v)``, built by
:class:`~repro.geometry.BatchedOcclusionConverter`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["StaticOcclusionGraph"]

DEFAULT_BODY_RADIUS = 0.25  # metres; adult shoulder half-width


@dataclass
class StaticOcclusionGraph:
    """A static occlusion graph for one target user at one time step.

    Attributes
    ----------
    target:
        Index of the target user ``v``; isolated by construction.
    adjacency:
        Boolean ``(N, N)`` arc-intersection matrix (diagonal and target
        row/column all False).
    distances:
        Distance from the target to each user (0 for the target itself).
    centers, half_widths:
        Per-user arc parameters in the target's view (0 for the target).
    """

    target: int
    adjacency: np.ndarray
    distances: np.ndarray
    centers: np.ndarray
    half_widths: np.ndarray
    body_radius: float = DEFAULT_BODY_RADIUS

    _edge_set: frozenset = field(default=None, repr=False, compare=False)

    @property
    def num_users(self) -> int:
        """Number of users (including the target)."""
        return self.adjacency.shape[0]

    @property
    def num_edges(self) -> int:
        """Number of occlusion edges."""
        return int(self.adjacency.sum()) // 2

    def edges(self) -> frozenset:
        """Edge set as a frozenset of sorted index pairs."""
        if self._edge_set is None:
            rows, cols = np.nonzero(np.triu(self.adjacency, k=1))
            self._edge_set = frozenset(zip(rows.tolist(), cols.tolist()))
        return self._edge_set

    def degree(self) -> np.ndarray:
        """Per-node degree vector."""
        return self.adjacency.sum(axis=1).astype(np.int64)

    def neighbors(self, node: int) -> np.ndarray:
        """Indices adjacent to ``node``."""
        return np.nonzero(self.adjacency[node])[0]

    def adjacency_float(self) -> np.ndarray:
        """Float adjacency matrix ``A_t`` for GNN propagation."""
        return self.adjacency.astype(np.float64)

    def subgraph_adjacency(self, mask: np.ndarray) -> np.ndarray:
        """Adjacency restricted to nodes where ``mask`` is True."""
        keep = np.asarray(mask, dtype=bool)
        out = self.adjacency.copy()
        out[~keep, :] = False
        out[:, ~keep] = False
        return out
