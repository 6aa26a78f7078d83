"""Functional operations on :class:`~repro.nn.tensor.Tensor` objects.

Thin, composable wrappers used across model code.  Every function accepts
tensors or array-likes and returns a tensor participating in the autograd
graph.  The n-ary ops (``concatenate``, ``stack``) are registered tape
primitives like every other operation, so one eager backward sweep and
the gradcheck suite cover them too.
"""

from __future__ import annotations

import numpy as np

from .tape import Primitive, register
from .tensor import Tensor, as_tensor, _apply

__all__ = [
    "relu",
    "sigmoid",
    "tanh",
    "exp",
    "log",
    "softmax",
    "log_softmax",
    "concatenate",
    "stack",
    "dot",
    "matmul",
    "sum",
    "mean",
    "binary_cross_entropy",
    "mse_loss",
    "softplus",
    "dropout",
]


def _fwd_concatenate(attrs, *arrays):
    return np.concatenate(arrays, axis=attrs)


def _vjp_concatenate(attrs, out, ins, grad, needs):
    axis = attrs
    sizes = [a.shape[axis] for a in ins]
    offsets = np.cumsum([0] + sizes)
    partials = []
    for need, lo, hi in zip(needs, offsets[:-1], offsets[1:]):
        if need:
            index = [slice(None)] * grad.ndim
            index[axis] = slice(lo, hi)
            partials.append(grad[tuple(index)])
        else:
            partials.append(None)
    return tuple(partials)


def _fwd_stack(attrs, *arrays):
    return np.stack(arrays, axis=attrs)


def _vjp_stack(attrs, out, ins, grad, needs):
    axis = attrs
    slices = np.split(grad, len(ins), axis=axis)
    return tuple(np.squeeze(g, axis=axis) if need else None
                 for need, g in zip(needs, slices))


P_CONCATENATE = register(
    Primitive("concatenate", _fwd_concatenate, _vjp_concatenate))
P_STACK = register(Primitive("stack", _fwd_stack, _vjp_stack))


def relu(x) -> Tensor:
    """Rectified linear unit."""
    return as_tensor(x).relu()


def sigmoid(x) -> Tensor:
    """Logistic sigmoid."""
    return as_tensor(x).sigmoid()


def tanh(x) -> Tensor:
    """Hyperbolic tangent."""
    return as_tensor(x).tanh()


def exp(x) -> Tensor:
    """Elementwise exponential (input clipped for stability)."""
    return as_tensor(x).exp()


def log(x, eps: float = 1e-12) -> Tensor:
    """Elementwise natural log with an epsilon floor."""
    return as_tensor(x).log(eps)


def softplus(x) -> Tensor:
    """Numerically-stable ``log(1 + exp(x))``."""
    x = as_tensor(x)
    return relu(x) + log(exp(-x.abs()) + 1.0)


def softmax(x, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` with max-subtraction for stability."""
    x = as_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    e = shifted.exp()
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x, axis: int = -1) -> Tensor:
    """Log-softmax along ``axis``."""
    return softmax(x, axis=axis).log()


def concatenate(tensors, axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with full gradient routing."""
    return _apply(P_CONCATENATE, axis, tuple(as_tensor(t) for t in tensors))


def stack(tensors, axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    return _apply(P_STACK, axis, tuple(as_tensor(t) for t in tensors))


def dot(a, b) -> Tensor:
    """Inner product of two 1-D tensors."""
    return (as_tensor(a) * as_tensor(b)).sum()


def matmul(a, b) -> Tensor:
    """Matrix product participating in the autograd graph."""
    return as_tensor(a).matmul(b)


def sum(x, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    """Sum reduction (shadowing builtin intentionally, as in torch)."""
    return as_tensor(x).sum(axis=axis, keepdims=keepdims)


def mean(x, axis=None, keepdims: bool = False) -> Tensor:
    """Mean reduction."""
    return as_tensor(x).mean(axis=axis, keepdims=keepdims)


def binary_cross_entropy(pred, target, eps: float = 1e-9) -> Tensor:
    """Mean binary cross-entropy between probabilities and 0/1 targets."""
    pred = as_tensor(pred)
    target = as_tensor(target)
    loss = -(target * pred.log(eps) + (1.0 - target) * (1.0 - pred).log(eps))
    return loss.mean()


def dropout(x, rate: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout; identity when ``training`` is False or rate is 0."""
    if not training or rate <= 0.0:
        return as_tensor(x)
    x = as_tensor(x)
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep) / keep
    return x * Tensor(mask)


def mse_loss(pred, target) -> Tensor:
    """Mean squared error."""
    diff = as_tensor(pred) - as_tensor(target)
    return (diff * diff).mean()
