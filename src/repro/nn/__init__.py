"""``repro.nn`` — a small numpy autograd + neural-network engine.

Replaces the paper's PyTorch dependency (see DESIGN.md §2).  Public API:

* :class:`Tensor`, :func:`as_tensor`, :class:`no_grad` — autograd core.
* :mod:`repro.nn.functional` (imported as ``F``) — functional ops.
* :class:`Module`, :class:`Parameter` — parameter containers.
* Layers: :class:`Linear`, :class:`MLP`, :class:`GraphConv`,
  :class:`DiffusionConv`, :class:`GRUCell`, :class:`GraphGRUCell`,
  :class:`AttentionFusion`.
* Optimisers: :class:`SGD`, :class:`Adam`, :func:`clip_grad_norm`.
* Checkpointing: :func:`save_module`, :func:`load_module`.
* Tape autograd: :class:`Primitive` — the shared ``(forward, vjp)``
  registry every operation runs through (see docs/AUTOGRAD.md).
"""

from . import functional
from . import init
from .layers import (
    AttentionFusion,
    DiffusionConv,
    GraphConv,
    GraphGRUCell,
    GRUCell,
    Linear,
    MLP,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from .module import Module, Parameter
from .optim import Adam, Optimizer, SGD, clip_grad_norm
from .serialization import (
    atomic_savez,
    flatten_state,
    load_module,
    normalize_npz_path,
    save_module,
    unflatten_state,
)
from .tape import Primitive
from .tensor import Tensor, as_tensor, is_grad_enabled, no_grad

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "Primitive",
    "functional",
    "init",
    "Module",
    "Parameter",
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
    "Optimizer",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "save_module",
    "load_module",
    "atomic_savez",
    "normalize_npz_path",
    "flatten_state",
    "unflatten_state",
]
