"""Explicit autograd tape: the primitive registry and graph nodes.

``repro.nn`` originally expressed reverse-mode autodiff as one Python
closure per operation, captured on the output tensor.  This module is the
replacement substrate: every differentiable operation is a
:class:`Primitive` — a named ``(forward, vjp)`` pair shared by all call
sites — and each executed op allocates a single :class:`TapeNode` holding
``(primitive, attrs, inputs)``.  The eager backward pass in
:mod:`repro.nn.tensor` walks these nodes in exactly the same depth-first
order as the closure implementation did, so gradients (and therefore every
golden checkpoint hash in the test suite) are bit-identical.

Grad mode is **thread-local**: a ``no_grad`` block on one thread does not
disable graph construction for concurrent forwards on other threads.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = [
    "Primitive",
    "PRIMITIVES",
    "TapeNode",
]


class _GradState(threading.local):
    """Per-thread autograd state: the grad-enabled flag."""

    def __init__(self):
        self.enabled = True


_STATE = _GradState()


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along axes that were broadcast from size 1.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Primitive:
    """A named differentiable operation shared by every call site.

    Parameters
    ----------
    name:
        Registry key (e.g. ``"add"``).
    forward:
        ``forward(attrs, *arrays) -> ndarray`` computing the op.
    vjp:
        ``vjp(attrs, out, arrays, grad, needs) -> tuple`` returning one
        gradient partial per input (``None`` where ``needs[i]`` is False).
        Data-dependent quantities (masks, clip floors) are recomputed from
        ``arrays``/``out`` rather than captured in closures.
    """

    __slots__ = ("name", "forward", "vjp")

    def __init__(self, name, forward, vjp):
        self.name = name
        self.forward = forward
        self.vjp = vjp

    def __repr__(self) -> str:
        return f"Primitive({self.name!r})"


#: Registry of every primitive, keyed by name (used by gradcheck tests).
PRIMITIVES: dict = {}


def register(primitive: Primitive) -> Primitive:
    """Add ``primitive`` to :data:`PRIMITIVES` and return it."""
    PRIMITIVES[primitive.name] = primitive
    return primitive


class TapeNode:
    """One executed primitive: ``(prim, attrs, inputs)`` plus captured data.

    ``parents`` is the tuple of grad-requiring input tensors (the edges the
    eager backward sweep follows — same filtering as the closure design);
    ``needs`` marks, per positional input, whether a partial is required.
    """

    __slots__ = ("prim", "attrs", "inputs", "in_data", "needs", "out_data",
                 "parents")

    def __init__(self, prim, attrs, inputs, in_data, needs, out_data,
                 parents):
        self.prim = prim
        self.attrs = attrs
        self.inputs = inputs
        self.in_data = in_data
        self.needs = needs
        self.out_data = out_data
        self.parents = parents

    def execute_vjp(self, grad) -> None:
        """Run this node's vjp eagerly, accumulating into grad-requiring inputs."""
        partials = self.prim.vjp(self.attrs, self.out_data, self.in_data,
                                 grad, self.needs)
        for tensor, partial in zip(self.inputs, partials):
            if partial is not None and tensor.requires_grad:
                tensor._accumulate(partial)
