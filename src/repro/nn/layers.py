"""Neural layers used by POSHGNN and the learned baselines.

Layers here are deliberately small and explicit — the paper's networks are
2-3 layer GNNs with hidden dimension 8, so clarity beats generality.

Graph layers accept the adjacency operator as a plain numpy array or a
constant tensor; the adjacency is environment data, not a learned
quantity, so it never requires gradients.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from . import init
from .module import Module, Parameter
from .tensor import Tensor, as_tensor

__all__ = [
    "Linear",
    "Sequential",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "MLP",
    "GraphConv",
    "DiffusionConv",
    "GRUCell",
    "GraphGRUCell",
    "AttentionFusion",
]


class Linear(Module):
    """Affine map ``y = x W + b`` with Glorot initialisation."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.glorot_uniform((in_features, out_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x) -> Tensor:
        """Apply the affine map."""
        out = as_tensor(x).matmul(self.weight)
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


class ReLU(Module):
    """Stateless ReLU module (for :class:`Sequential`)."""

    def forward(self, x) -> Tensor:
        """Apply ReLU."""
        return F.relu(x)


class Sigmoid(Module):
    """Stateless sigmoid module."""

    def forward(self, x) -> Tensor:
        """Apply the sigmoid."""
        return F.sigmoid(x)


class Tanh(Module):
    """Stateless tanh module."""

    def forward(self, x) -> Tensor:
        """Apply tanh."""
        return F.tanh(x)


class Sequential(Module):
    """Feed-forward chain of modules."""

    def __init__(self, *layers: Module):
        super().__init__()
        self._layers = list(layers)
        for i, layer in enumerate(layers):
            setattr(self, f"layer{i}", layer)

    def forward(self, x) -> Tensor:
        """Apply each layer in order."""
        for layer in self._layers:
            x = layer(x)
        return x

    def __len__(self) -> int:
        return len(self._layers)

    def __getitem__(self, index: int) -> Module:
        return self._layers[index]


class MLP(Module):
    """Multilayer perceptron with ReLU hidden activations.

    ``dims`` lists layer widths, e.g. ``[16, 8, 1]``.  The output layer is
    linear unless ``out_activation`` is given.
    """

    def __init__(self, dims: list, rng: np.random.Generator,
                 out_activation: str | None = None):
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP needs at least input and output dims")
        layers: list[Module] = []
        for i in range(len(dims) - 1):
            layers.append(Linear(dims[i], dims[i + 1], rng))
            if i < len(dims) - 2:
                layers.append(ReLU())
        if out_activation == "sigmoid":
            layers.append(Sigmoid())
        elif out_activation == "tanh":
            layers.append(Tanh())
        elif out_activation is not None:
            raise ValueError(f"unknown activation {out_activation!r}")
        self.net = Sequential(*layers)

    def forward(self, x) -> Tensor:
        """Apply the MLP."""
        return self.net(x)


class GraphConv(Module):
    """The paper's GNN layer (Eq. 1).

    ``h' = act(h M1 + (A h) M2)`` — self transform plus sum-aggregated
    neighbour transform, matching

    ``h_{w_i}^{l+1} = ReLU(M1 h_{w_i}^l + M2 · sum_{(w_i,w_j) in E} h_{w_j}^l)``.

    The activation is configurable because the output layer of PDR/LWP is
    followed by a sigmoid rather than a ReLU.
    """

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, activation: str = "relu"):
        super().__init__()
        self.self_weight = Parameter(
            init.glorot_uniform((in_features, out_features), rng))
        self.neigh_weight = Parameter(
            init.glorot_uniform((in_features, out_features), rng))
        self.bias = Parameter(init.zeros((out_features,)))
        if activation not in ("relu", "sigmoid", "tanh", "none"):
            raise ValueError(f"unknown activation {activation!r}")
        self.activation = activation

    def forward(self, x, adjacency) -> Tensor:
        """Eq. 1: self transform plus aggregated-neighbour transform."""
        x = as_tensor(x)
        if not isinstance(adjacency, Tensor):
            adjacency = Tensor(np.asarray(adjacency))
        aggregated = adjacency.matmul(x)
        out = x.matmul(self.self_weight) + aggregated.matmul(self.neigh_weight)
        out = out + self.bias
        if self.activation == "relu":
            return F.relu(out)
        if self.activation == "sigmoid":
            return F.sigmoid(out)
        if self.activation == "tanh":
            return F.tanh(out)
        return out


class DiffusionConv(Module):
    """Diffusion convolution used by DCRNN.

    Aggregates K-hop bidirectional random-walk propagations:
    ``y = sum_k (P_fwd^k x) W_k + (P_bwd^k x) V_k`` where ``P`` are
    row-normalised transition matrices of the (occlusion) graph.
    """

    def __init__(self, in_features: int, out_features: int, k_hops: int,
                 rng: np.random.Generator):
        super().__init__()
        self.k_hops = k_hops
        self.weight_self = Parameter(
            init.glorot_uniform((in_features, out_features), rng))
        for k in range(k_hops):
            setattr(self, f"weight_fwd{k}",
                    Parameter(init.glorot_uniform((in_features, out_features), rng)))
            setattr(self, f"weight_bwd{k}",
                    Parameter(init.glorot_uniform((in_features, out_features), rng)))
        self.bias = Parameter(init.zeros((out_features,)))

    @staticmethod
    def transition_matrix(adjacency: np.ndarray) -> np.ndarray:
        """Row-normalised random-walk transition matrix."""
        degree = np.asarray(adjacency).sum(axis=1)
        inv = np.where(degree > 0, 1.0 / np.maximum(degree, 1e-12), 0.0)
        return np.asarray(adjacency) * inv[:, None]

    def forward(self, x, adjacency) -> Tensor:
        """K-hop bidirectional diffusion convolution over ``adjacency``."""
        x = as_tensor(x)
        p_fwd = Tensor(self.transition_matrix(adjacency))
        p_bwd = Tensor(self.transition_matrix(np.asarray(adjacency).T))
        out = x.matmul(self.weight_self)
        fwd, bwd = x, x
        for k in range(self.k_hops):
            fwd = p_fwd.matmul(fwd)
            bwd = p_bwd.matmul(bwd)
            out = out + fwd.matmul(getattr(self, f"weight_fwd{k}"))
            out = out + bwd.matmul(getattr(self, f"weight_bwd{k}"))
        return out + self.bias


class GRUCell(Module):
    """Standard gated recurrent unit cell over node-feature matrices."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator):
        super().__init__()
        self.hidden_size = hidden_size
        cat = input_size + hidden_size
        self.update = Linear(cat, hidden_size, rng)
        self.reset = Linear(cat, hidden_size, rng)
        self.candidate = Linear(cat, hidden_size, rng)

    def forward(self, x, hidden) -> Tensor:
        """One GRU step; returns the new hidden state."""
        x = as_tensor(x)
        hidden = as_tensor(hidden)
        joint = F.concatenate([x, hidden], axis=-1)
        z = F.sigmoid(self.update(joint))
        r = F.sigmoid(self.reset(joint))
        joint_reset = F.concatenate([x, r * hidden], axis=-1)
        candidate = F.tanh(self.candidate(joint_reset))
        return (1.0 - z) * hidden + z * candidate

    def initial_state(self, num_nodes: int) -> Tensor:
        """Zero hidden state for ``num_nodes`` nodes."""
        return Tensor(np.zeros((num_nodes, self.hidden_size)))


class GraphGRUCell(Module):
    """GRU cell whose gates are graph convolutions (the T-GCN recurrence)."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator):
        super().__init__()
        self.hidden_size = hidden_size
        cat = input_size + hidden_size
        self.update = GraphConv(cat, hidden_size, rng, activation="none")
        self.reset = GraphConv(cat, hidden_size, rng, activation="none")
        self.candidate = GraphConv(cat, hidden_size, rng, activation="none")

    def forward(self, x, hidden, adjacency) -> Tensor:
        """One graph-GRU step; returns the new hidden state."""
        x = as_tensor(x)
        hidden = as_tensor(hidden)
        joint = F.concatenate([x, hidden], axis=-1)
        z = F.sigmoid(self.update(joint, adjacency))
        r = F.sigmoid(self.reset(joint, adjacency))
        joint_reset = F.concatenate([x, r * hidden], axis=-1)
        candidate = F.tanh(self.candidate(joint_reset, adjacency))
        return (1.0 - z) * hidden + z * candidate

    def initial_state(self, num_nodes: int) -> Tensor:
        """Zero hidden state for ``num_nodes`` nodes."""
        return Tensor(np.zeros((num_nodes, self.hidden_size)))


class AttentionFusion(Module):
    """Cross-facet attention used by the GraFrank baseline.

    Given per-facet node embeddings (a list of ``N x d`` tensors), computes
    softmax attention weights per node from each facet embedding and returns
    the attention-weighted sum.
    """

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.score = Linear(dim, 1, rng)

    def forward(self, facets: list) -> Tensor:
        """Attention-weighted fusion of per-facet embeddings."""
        facets = [as_tensor(f) for f in facets]
        scores = F.concatenate([self.score(f) for f in facets], axis=-1)
        weights = F.softmax(scores, axis=-1)
        out = facets[0] * weights[:, 0:1]
        for i, facet in enumerate(facets[1:], start=1):
            out = out + facet * weights[:, i:i + 1]
        return out
