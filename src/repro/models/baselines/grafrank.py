"""GraFrank — multi-faceted GNN friend ranking [31].

The paper's personalised ranking baseline: a GNN over the *social* graph
aggregates multi-faceted user features, fuses them with cross-facet
attention, and is trained with a pairwise (BPR) ranking objective on
observed friendships.  Recommendations are static top-k by learned score
— no trajectory or occlusion awareness, the weakness Table II/III expose.
"""

from __future__ import annotations

import numpy as np

from ...core.problem import AfterProblem
from ...core.recommender import Recommender, top_k_mask
from ...core.scene import Frame
from ...nn import Adam, AttentionFusion, GraphConv, Module, Tensor, no_grad
from ...nn import functional as F
from ...social import spectral_embedding

__all__ = ["GraFrankRecommender"]


class _GraFrankNet(Module):
    """Per-facet graph convolutions + cross-facet attention fusion."""

    def __init__(self, facet_dims: list, embed_dim: int,
                 rng: np.random.Generator):
        super().__init__()
        self.facet_count = len(facet_dims)
        for i, dim in enumerate(facet_dims):
            setattr(self, f"facet{i}_conv1",
                    GraphConv(dim, embed_dim, rng, activation="relu"))
            setattr(self, f"facet{i}_conv2",
                    GraphConv(embed_dim, embed_dim, rng, activation="none"))
        self.fusion = AttentionFusion(embed_dim, rng)

    def forward(self, facets: list, adjacency: np.ndarray) -> Tensor:
        outputs = []
        for i, features in enumerate(facets):
            hidden = getattr(self, f"facet{i}_conv1")(features, adjacency)
            outputs.append(getattr(self, f"facet{i}_conv2")(hidden, adjacency))
        return self.fusion(outputs)


class GraFrankRecommender(Recommender):
    """Personalised friend ranking via a multi-facet GNN."""

    name = "GraFrank"

    def __init__(self, embed_dim: int = 8, epochs: int = 30,
                 samples_per_epoch: int = 256, lr: float = 1e-2,
                 seed: int = 0):
        self.embed_dim = embed_dim
        self.epochs = epochs
        self.samples_per_epoch = samples_per_epoch
        self.lr = lr
        self.seed = seed
        self._embeddings: np.ndarray | None = None
        self._room_id: int | None = None

    # ------------------------------------------------------------------
    # Training (static, once per room)
    # ------------------------------------------------------------------
    def fit(self, problems: list) -> dict:
        if not problems:
            raise ValueError("no problems given")
        return self._fit_room(problems[0].room)

    def _fit_room(self, room) -> dict:
        rng = np.random.default_rng(self.seed)
        graph = room.social
        count = graph.num_users
        adjacency = graph.adjacency.astype(np.float64)

        facets = self._facet_features(room)
        net = _GraFrankNet([f.shape[1] for f in facets], self.embed_dim, rng)
        optimizer = Adam(net.parameters(), lr=self.lr)
        facet_tensors = [Tensor(f) for f in facets]

        edges = np.argwhere(np.triu(graph.adjacency, 1))
        # An anchor befriending everyone has no negative to draw, and
        # resampling for one would never end: drop its edges.  Only then
        # does the edge list change, so other rooms draw the same numbers.
        has_stranger = ~(graph.adjacency | np.eye(count, dtype=bool)).all(
            axis=1)
        if not has_stranger[edges[:, 0]].all():
            edges = edges[has_stranger[edges[:, 0]]]
        history: list[float] = []
        if edges.shape[0] > 0:
            for _ in range(self.epochs):
                loss = self._bpr_epoch(net, facet_tensors, adjacency, edges,
                                       graph.adjacency, count, rng)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                history.append(loss.item())

        with no_grad():
            self._embeddings = net(facet_tensors, adjacency).data.copy()
        self._room_id = id(room)
        return {"loss": history}

    def _facet_features(self, room) -> list:
        """Two facets: structural embedding and activity/popularity."""
        graph = room.social
        count = graph.num_users
        structure = spectral_embedding(graph, dim=min(8, max(count - 1, 1)))
        degrees = graph.degrees().astype(np.float64)
        activity = np.column_stack([
            degrees / max(degrees.max(), 1.0),
            room.preference.mean(axis=0),          # how liked the user is
            room.presence.mean(axis=0),            # how bonded the user is
            graph.tie_strengths.mean(axis=1),
        ])
        return [structure, activity]

    def _bpr_epoch(self, net: _GraFrankNet, facets: list,
                   adjacency: np.ndarray, edges: np.ndarray,
                   friendship: np.ndarray, count: int,
                   rng: np.random.Generator) -> Tensor:
        """One Bayesian-pairwise-ranking pass: friends above strangers."""
        embeddings = net(facets, adjacency)
        samples = min(self.samples_per_epoch, edges.shape[0])
        picks = rng.choice(edges.shape[0], size=samples, replace=True)
        anchors = edges[picks, 0]
        positives = edges[picks, 1]
        negatives = rng.integers(0, count, size=samples)
        # Resample negatives that happen to be friends of the anchor.
        bad = friendship[anchors, negatives] | (negatives == anchors)
        while bad.any():
            negatives[bad] = rng.integers(0, count, size=int(bad.sum()))
            bad = friendship[anchors, negatives] | (negatives == anchors)

        anchor_emb = embeddings[anchors]
        pos_scores = (anchor_emb * embeddings[positives]).sum(axis=1)
        neg_scores = (anchor_emb * embeddings[negatives]).sum(axis=1)
        return -F.sigmoid(pos_scores - neg_scores).log().mean()

    # ------------------------------------------------------------------
    # Recommendation
    # ------------------------------------------------------------------
    def reset(self, problem: AfterProblem) -> None:
        super().reset(problem)
        if self._embeddings is None or self._room_id != id(problem.room):
            self._fit_room(problem.room)
        scores = self._embeddings @ self._embeddings[problem.target]
        scores[problem.target] = -np.inf
        scores = scores - scores[np.isfinite(scores)].min() + 1.0
        scores[problem.target] = -np.inf
        eligible = np.isfinite(scores)
        self._static_mask = top_k_mask(
            np.where(eligible, scores, -np.inf), problem.max_render, eligible)

    def recommend(self, frame: Frame) -> np.ndarray:
        return self._static_mask.copy()
