"""PDR — Partial view De-occlusion Recommender (paper Sec. IV-B).

A light two-layer GNN (Eq. 1) over the current occlusion graph.  It emits
the prototype recommendation ``r_tilde_t`` (sigmoid probabilities) *and*
its hidden state ``h_t``, which carries recommendation uncertainty into
the next step's LWP.

The intertemporal "partial view" refinement of the paper (progressively
resolving the slowly-changing occlusion graph) is realised by the LWP
preservation gate feeding PDR's prototype back through ``r_{t-1}``.
"""

from __future__ import annotations

import numpy as np

from ...nn import GraphConv, Module, Tensor

__all__ = ["PDR"]


class PDR(Module):
    """Two-layer de-occlusion recommender.

    Layer 1: features -> hidden (ReLU); layer 2: hidden -> 1 (sigmoid).
    ``hidden_dim`` defaults to the paper's 8.
    """

    def __init__(self, in_features: int, hidden_dim: int,
                 rng: np.random.Generator):
        super().__init__()
        self.hidden_dim = hidden_dim
        self.conv1 = GraphConv(in_features, hidden_dim, rng,
                               activation="relu")
        self.conv2 = GraphConv(hidden_dim, 1, rng, activation="sigmoid")

    def forward(self, features, adjacency) -> tuple[Tensor, Tensor]:
        """Return ``(r_tilde_t, h_t)`` — probabilities (..., N) and hidden
        states (..., N, hidden_dim)."""
        hidden = self.conv1(features, adjacency)
        scores = self.conv2(hidden, adjacency)
        prototype = scores.reshape(scores.shape[:-1])
        return prototype, hidden
