"""MvAGC — graph-filter multi-view attributed graph clustering [66].

The paper's grouping-based baseline: users are clustered on the *social*
graph (no spatial information), and each user is shown members of their
own cluster.  Faithful to Lin & Kang (IJCAI'21) in structure:

1. per-view low-pass graph filtering ``X_bar = (I - L/2)^k X`` over the
   normalised Laplacian,
2. anchor-based fusion of the filtered views (high-degree anchors),
3. k-means on the fused representation.

Recommendations are static: at every step the target sees the top-k
same-cluster members ranked by tie strength — exactly the failure mode
the paper highlights (no occlusion or trajectory awareness).
"""

from __future__ import annotations

import numpy as np
from scipy.cluster.vq import kmeans2

from ...core.problem import AfterProblem
from ...core.recommender import Recommender, top_k_mask
from ...core.scene import Frame
from ...social import spectral_embedding

__all__ = ["MvAGCRecommender"]


class MvAGCRecommender(Recommender):
    """Grouping-based recommendation via multi-view graph filtering."""

    name = "MvAGC"

    def __init__(self, num_clusters: int = 8, filter_order: int = 2,
                 anchor_fraction: float = 0.3, seed: int = 0):
        if num_clusters < 1:
            raise ValueError("num_clusters must be positive")
        if filter_order < 1:
            raise ValueError("filter_order must be positive")
        if not 0.0 < anchor_fraction <= 1.0:
            raise ValueError("anchor_fraction must be in (0, 1]")
        self.num_clusters = num_clusters
        self.filter_order = filter_order
        self.anchor_fraction = anchor_fraction
        self.seed = seed
        self._clusters: np.ndarray | None = None
        self._room_id: int | None = None

    # ------------------------------------------------------------------
    # Clustering (static, once per room)
    # ------------------------------------------------------------------
    def fit(self, problems: list) -> dict:
        """Cluster the room of the first problem (all share the room)."""
        if not problems:
            raise ValueError("no problems given")
        self._fit_room(problems[0].room)
        return {}

    def _fit_room(self, room) -> None:
        graph = room.social
        count = graph.num_users
        clusters = min(self.num_clusters, count)

        views = [
            spectral_embedding(graph, dim=min(8, max(count - 1, 1))),
            self._attribute_view(room),
        ]
        filtered = [self._graph_filter(graph, view) for view in views]
        fused = np.hstack(filtered)
        fused = self._anchor_projection(graph, fused)

        _centroids, labels = kmeans2(fused, clusters, minit="++",
                                     seed=self.seed)
        self._clusters = labels
        self._room_id = id(room)

    def _attribute_view(self, room) -> np.ndarray:
        """Per-user attribute features: popularity, sociability, ties."""
        graph = room.social
        degrees = graph.degrees().astype(np.float64)
        degrees = degrees / max(degrees.max(), 1.0)
        popularity = room.preference.mean(axis=0)
        sociability = room.presence.mean(axis=0)
        mean_tie = graph.tie_strengths.mean(axis=1)
        return np.column_stack([degrees, popularity, sociability, mean_tie])

    def _graph_filter(self, graph, features: np.ndarray) -> np.ndarray:
        """k applications of the low-pass filter ``(I - L/2)``."""
        adjacency = graph.adjacency.astype(np.float64)
        degrees = adjacency.sum(axis=1)
        inv_sqrt = np.where(degrees > 0,
                            1.0 / np.sqrt(np.maximum(degrees, 1e-12)), 0.0)
        normalised = inv_sqrt[:, None] * adjacency * inv_sqrt[None, :]
        laplacian = np.eye(adjacency.shape[0]) - normalised
        smoother = np.eye(adjacency.shape[0]) - 0.5 * laplacian
        out = features.astype(np.float64)
        for _ in range(self.filter_order):
            out = smoother @ out
        return out

    def _anchor_projection(self, graph, fused: np.ndarray) -> np.ndarray:
        """Represent users by similarity to high-degree anchor users."""
        count = fused.shape[0]
        num_anchors = max(2, int(round(count * self.anchor_fraction)))
        anchors = np.argsort(-graph.degrees())[:num_anchors]
        anchor_features = fused[anchors]
        norms = (np.linalg.norm(fused, axis=1, keepdims=True)
                 * np.linalg.norm(anchor_features, axis=1)[None, :])
        similarity = fused @ anchor_features.T
        return np.divide(similarity, norms, out=np.zeros_like(similarity),
                         where=norms > 1e-12)

    # ------------------------------------------------------------------
    # Recommendation
    # ------------------------------------------------------------------
    def reset(self, problem: AfterProblem) -> None:
        super().reset(problem)
        if self._clusters is None or self._room_id != id(problem.room):
            self._fit_room(problem.room)
        target = problem.target
        same_cluster = self._clusters == self._clusters[target]
        same_cluster[target] = False
        # Rank cluster members by tie strength to the target, falling back
        # to presence utility for strangers inside the cluster.
        ties = problem.room.social.tie_strengths[target]
        presence = problem.room.presence[target]
        scores = np.where(ties > 0, 1.0 + ties, presence)
        scores = np.where(same_cluster, scores + 1e-6, 0.0)
        self._static_mask = top_k_mask(scores, problem.max_render)

    def recommend(self, frame: Frame) -> np.ndarray:
        return self._static_mask.copy()
