"""Reverse-mode automatic differentiation on top of numpy arrays.

This module is the computational substrate for every neural model in the
repository (POSHGNN and all learned baselines).  The paper trains its
networks with PyTorch; this engine provides the same capability — scalar
loss, ``backward()``, gradient accumulation into leaf tensors — in pure
numpy, which is sufficient because the paper's networks are tiny (2-3
layers, hidden dimension 8).

Design notes
------------
* Every operation is a shared :class:`~repro.nn.tape.Primitive`; applying
  one allocates a single :class:`~repro.nn.tape.TapeNode` recording
  ``(primitive, attrs, inputs)`` instead of a per-op backward closure.
  ``backward()`` performs the same depth-first topological sweep as the
  original closure design — gradient accumulation order (and therefore
  every bit of every gradient) is unchanged.
* Broadcasting is fully supported: gradients flowing into a broadcast
  operand are summed back down to the operand's shape.
* Graph-structured aggregation (adjacency matmul) treats the adjacency
  matrix as a constant numpy operand, so sparse scipy matrices can be used
  directly without entering the autograd graph.
* Grad mode is thread-local: ``no_grad`` on one thread does not disable
  graph construction on another (see :mod:`repro.nn.tape`).
"""

from __future__ import annotations

import numpy as np

from .tape import (
    _STATE,
    Primitive,
    TapeNode,
    _unbroadcast,
    register,
)

__all__ = ["Tensor", "as_tensor", "no_grad", "is_grad_enabled"]


class no_grad:
    """Context manager that disables graph construction on this thread.

    Mirrors ``torch.no_grad()``: operations executed inside the block
    produce constant tensors, which keeps inference cheap.  The flag is
    thread-local, so concurrent forwards on other threads keep building
    graphs normally.
    """

    def __enter__(self):
        self._previous = _STATE.enabled
        _STATE.enabled = False
        return self

    def __exit__(self, exc_type, exc, tb):
        _STATE.enabled = self._previous
        return False


def is_grad_enabled() -> bool:
    """Return whether autograd graph construction is enabled on this thread."""
    return _STATE.enabled


# ----------------------------------------------------------------------
# Primitive definitions (shared forward/vjp pairs)
# ----------------------------------------------------------------------
def _fwd_add(attrs, a, b):
    return a + b


def _vjp_add(attrs, out, ins, grad, needs):
    return (grad if needs[0] else None, grad if needs[1] else None)


def _fwd_neg(attrs, a):
    return -a


def _vjp_neg(attrs, out, ins, grad, needs):
    return (-grad,)


def _fwd_mul(attrs, a, b):
    return a * b


def _vjp_mul(attrs, out, ins, grad, needs):
    a, b = ins
    return (grad * b if needs[0] else None,
            grad * a if needs[1] else None)


def _fwd_div(attrs, a, b):
    return a / b


def _vjp_div(attrs, out, ins, grad, needs):
    a, b = ins
    return (grad / b if needs[0] else None,
            -grad * a / (b ** 2) if needs[1] else None)


def _fwd_pow(attrs, a):
    return a ** attrs


def _vjp_pow(attrs, out, ins, grad, needs):
    (a,) = ins
    return (grad * attrs * a ** (attrs - 1),)


def _fwd_matmul(attrs, a, b):
    return a @ b


def _vjp_matmul(attrs, out, ins, grad, needs):
    a, b = ins
    if a.ndim <= 2 and b.ndim <= 2:
        ga = gb = None
        if needs[0]:
            if b.ndim == 1:
                ga = np.outer(grad, b) if a.ndim == 2 else grad * b
            else:
                g = np.atleast_2d(grad)
                ga = (g @ b.T).reshape(a.shape)
        if needs[1]:
            if a.ndim == 1:
                gb = np.outer(a, grad) if b.ndim == 2 else grad * a
            else:
                g = grad.reshape(a.shape[0], -1)
                gb = (a.T @ g).reshape(b.shape)
        return (ga, gb)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("batched matmul backward requires ndim >= 2 operands")
    ga = (_unbroadcast(grad @ np.swapaxes(b, -1, -2), a.shape)
          if needs[0] else None)
    gb = (_unbroadcast(np.swapaxes(a, -1, -2) @ grad, b.shape)
          if needs[1] else None)
    return (ga, gb)


def _fwd_transpose(attrs, a):
    return a.T


def _vjp_transpose(attrs, out, ins, grad, needs):
    return (grad.T,)


def _fwd_reshape(attrs, a):
    return a.reshape(attrs)


def _vjp_reshape(attrs, out, ins, grad, needs):
    (a,) = ins
    return (grad.reshape(a.shape),)


def _fwd_getitem(attrs, a):
    return a[attrs]


def _vjp_getitem(attrs, out, ins, grad, needs):
    (a,) = ins
    full = np.zeros_like(a)
    np.add.at(full, attrs, grad)
    return (full,)


def _fwd_sum(attrs, a):
    axis, keepdims = attrs
    return a.sum(axis=axis, keepdims=keepdims)


def _vjp_sum(attrs, out, ins, grad, needs):
    axis, keepdims = attrs
    (a,) = ins
    g = np.asarray(grad)
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return (np.broadcast_to(g, a.shape),)


def _fwd_max(attrs, a):
    return a.max(axis=attrs)


def _vjp_max(attrs, out, ins, grad, needs):
    axis = attrs
    (a,) = ins
    mask = a == (out if axis is None else np.expand_dims(out, axis))
    counts = mask.sum(axis=axis, keepdims=axis is not None)
    g = np.asarray(grad)
    if axis is not None:
        g = np.expand_dims(g, axis)
    return (mask * g / counts,)


def _fwd_relu(attrs, a):
    return a * (a > 0)


def _vjp_relu(attrs, out, ins, grad, needs):
    (a,) = ins
    return (grad * (a > 0),)


def _fwd_sigmoid(attrs, a):
    return 1.0 / (1.0 + np.exp(-np.clip(a, -60.0, 60.0)))


def _vjp_sigmoid(attrs, out, ins, grad, needs):
    return (grad * out * (1.0 - out),)


def _fwd_tanh(attrs, a):
    return np.tanh(a)


def _vjp_tanh(attrs, out, ins, grad, needs):
    return (grad * (1.0 - out ** 2),)


def _fwd_exp(attrs, a):
    return np.exp(np.clip(a, -60.0, 60.0))


def _vjp_exp(attrs, out, ins, grad, needs):
    return (grad * out,)


def _fwd_log(attrs, a):
    return np.log(np.maximum(a, attrs))


def _vjp_log(attrs, out, ins, grad, needs):
    (a,) = ins
    return (grad / np.maximum(a, attrs),)


def _fwd_sqrt(attrs, a):
    return np.sqrt(np.maximum(a, 0.0))


def _vjp_sqrt(attrs, out, ins, grad, needs):
    return (grad * 0.5 / np.maximum(out, 1e-12),)


def _fwd_abs(attrs, a):
    return np.abs(a)


def _vjp_abs(attrs, out, ins, grad, needs):
    (a,) = ins
    return (grad * np.sign(a),)


def _fwd_clip(attrs, a):
    return np.clip(a, attrs[0], attrs[1])


def _vjp_clip(attrs, out, ins, grad, needs):
    (a,) = ins
    return (grad * ((a > attrs[0]) & (a < attrs[1])),)


P_ADD = register(Primitive("add", _fwd_add, _vjp_add))
P_NEG = register(Primitive("neg", _fwd_neg, _vjp_neg))
P_MUL = register(Primitive("mul", _fwd_mul, _vjp_mul))
P_DIV = register(Primitive("div", _fwd_div, _vjp_div))
P_POW = register(Primitive("pow", _fwd_pow, _vjp_pow))
P_MATMUL = register(Primitive("matmul", _fwd_matmul, _vjp_matmul))
P_TRANSPOSE = register(Primitive("transpose", _fwd_transpose, _vjp_transpose))
P_RESHAPE = register(Primitive("reshape", _fwd_reshape, _vjp_reshape))
P_GETITEM = register(Primitive("getitem", _fwd_getitem, _vjp_getitem))
P_SUM = register(Primitive("sum", _fwd_sum, _vjp_sum))
P_MAX = register(Primitive("max", _fwd_max, _vjp_max))
P_RELU = register(Primitive("relu", _fwd_relu, _vjp_relu))
P_SIGMOID = register(Primitive("sigmoid", _fwd_sigmoid, _vjp_sigmoid))
P_TANH = register(Primitive("tanh", _fwd_tanh, _vjp_tanh))
P_EXP = register(Primitive("exp", _fwd_exp, _vjp_exp))
P_LOG = register(Primitive("log", _fwd_log, _vjp_log))
P_SQRT = register(Primitive("sqrt", _fwd_sqrt, _vjp_sqrt))
P_ABS = register(Primitive("abs", _fwd_abs, _vjp_abs))
P_CLIP = register(Primitive("clip", _fwd_clip, _vjp_clip))


def _apply(prim: Primitive, attrs, inputs: tuple) -> "Tensor":
    """Execute ``prim`` on ``inputs``, building a node when grads flow.

    This is the single graph-construction entry point: it mirrors the old
    ``Tensor._make`` (requires-grad inheritance, parent filtering).
    """
    arrays = tuple(t.data for t in inputs)
    out = Tensor.__new__(Tensor)
    out.data = np.asarray(prim.forward(attrs, *arrays), dtype=np.float64)
    out.grad = None
    out._node = None
    requires = False
    if _STATE.enabled:
        for t in inputs:
            if t.requires_grad:
                requires = True
                break
    out.requires_grad = requires
    if requires:
        out._node = TapeNode(
            prim, attrs, inputs, arrays,
            tuple(t.requires_grad for t in inputs), out.data,
            tuple(t for t in inputs if t.requires_grad))
    return out


class Tensor:
    """A numpy array with reverse-mode autograd support.

    Parameters
    ----------
    data:
        Anything convertible to a float64 numpy array.
    requires_grad:
        If True, gradients are accumulated into ``self.grad`` during
        ``backward()``.  Leaf parameters set this; intermediate results
        inherit it from their parents.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and _STATE.enabled
        self.grad: np.ndarray | None = None
        self._node = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    @property
    def T(self) -> "Tensor":
        """Transposed view (alias of :meth:`transpose`)."""
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4)}{flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a float."""
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a constant tensor sharing this tensor's data."""
        return Tensor(self.data)

    def copy(self) -> "Tensor":
        """Return a constant tensor with copied data."""
        return Tensor(self.data.copy())

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad=None) -> None:
        """Run reverse-mode differentiation from this tensor.

        ``grad`` defaults to 1 for scalar outputs; a gradient of the same
        shape must be supplied for non-scalar outputs (a mis-shaped seed
        raises ``ValueError``).  The traversal is the same iterative
        depth-first post-order as the original closure implementation, so
        accumulation order — and gradient bits — are unchanged.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar backward()")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"backward() seed gradient has shape {grad.shape}, "
                    f"but the output has shape {self.data.shape}")

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            tape_node = node._node
            if tape_node is not None:
                for parent in tape_node.parents:
                    if id(parent) not in seen:
                        stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(order):
            tape_node = node._node
            if tape_node is not None and tape_node.parents and node.grad is not None:
                tape_node.execute_vjp(node.grad)

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        return _apply(P_ADD, None, (self, as_tensor(other)))

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return _apply(P_NEG, None, (self,))

    def __sub__(self, other) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        return _apply(P_MUL, None, (self, as_tensor(other)))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        return _apply(P_DIV, None, (self, as_tensor(other)))

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        return _apply(P_POW, exponent, (self,))

    # ------------------------------------------------------------------
    # Matrix operations
    # ------------------------------------------------------------------
    def matmul(self, other) -> "Tensor":
        """Matrix product; supports 1-D/2-D and stacked ``(B, …)`` operands."""
        return _apply(P_MATMUL, None, (self, as_tensor(other)))

    def __matmul__(self, other) -> "Tensor":
        return self.matmul(other)

    def __rmatmul__(self, other) -> "Tensor":
        return as_tensor(other).matmul(self)

    def transpose(self) -> "Tensor":
        """Matrix transpose."""
        return _apply(P_TRANSPOSE, None, (self,))

    def reshape(self, *shape) -> "Tensor":
        """Reshape to ``shape`` (gradient reshaped back)."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _apply(P_RESHAPE, shape, (self,))

    def __getitem__(self, index) -> "Tensor":
        return _apply(P_GETITEM, index, (self,))

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum reduction along ``axis`` (all elements by default)."""
        return _apply(P_SUM, (axis, keepdims), (self,))

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Mean reduction along ``axis``."""
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None) -> "Tensor":
        """Max reduction; ties share the gradient equally."""
        return _apply(P_MAX, axis, (self,))

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        """Rectified linear unit."""
        return _apply(P_RELU, None, (self,))

    def sigmoid(self) -> "Tensor":
        """Logistic sigmoid (input clipped for stability)."""
        return _apply(P_SIGMOID, None, (self,))

    def tanh(self) -> "Tensor":
        """Hyperbolic tangent."""
        return _apply(P_TANH, None, (self,))

    def exp(self) -> "Tensor":
        """Elementwise exponential (input clipped for stability)."""
        return _apply(P_EXP, None, (self,))

    def log(self, eps: float = 1e-12) -> "Tensor":
        """Natural logarithm with an ``eps`` floor."""
        return _apply(P_LOG, eps, (self,))

    def sqrt(self) -> "Tensor":
        """Elementwise square root (negative input floored at 0)."""
        return _apply(P_SQRT, None, (self,))

    def abs(self) -> "Tensor":
        """Elementwise absolute value."""
        return _apply(P_ABS, None, (self,))

    def clip(self, lo: float, hi: float) -> "Tensor":
        """Clamp into ``[lo, hi]``; gradients stop at the bounds."""
        return _apply(P_CLIP, (lo, hi), (self,))


def as_tensor(value) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)
