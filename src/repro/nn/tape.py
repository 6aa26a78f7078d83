"""Explicit autograd tape: primitives, recorded graphs, and replay.

``repro.nn`` originally expressed reverse-mode autodiff as one Python
closure per operation, captured on the output tensor.  This module is the
replacement substrate: every differentiable operation is a
:class:`Primitive` — a named ``(forward, vjp)`` pair shared by all call
sites — and each executed op allocates a single :class:`TapeNode` holding
``(primitive, attrs, inputs)``.  The eager backward pass in
:mod:`repro.nn.tensor` walks these nodes in exactly the same depth-first
order as the closure implementation did, so gradients (and therefore every
golden checkpoint hash in the test suite) are bit-identical.

On top of the node representation this module adds two optimisation
layers used by the training stack:

* :class:`Tape` — a recording context.  While active, every executed
  primitive whose output requires grad *or* whose inputs derive from a
  watched tape input is appended to a flat arena.  The backward pass run
  during recording additionally captures the exact vjp execution order.
* :class:`CompiledGraph` / :class:`ReplayFunction` — a recorded tape
  compiled into flat forward/backward instruction programs with
  pre-allocated output and gradient buffers.  Replaying the program
  re-executes the same numpy arithmetic in the same order, so replayed
  losses and gradients are byte-equal to eager execution, while skipping
  graph construction entirely.  Consecutive single-consumer elementwise
  ops are fused into one instruction.  A shape change falls back to
  re-recording; graph-shape volatility (dropout masks, data-dependent
  fancy indexing) permanently falls back to eager execution.

Grad mode and the active tape are **thread-local**: a ``no_grad`` block on
one thread no longer disables graph construction for concurrent forwards
on other threads.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = [
    "Primitive",
    "PRIMITIVES",
    "TapeNode",
    "Tape",
    "TapeCompileError",
    "CompiledGraph",
    "ReplayFunction",
    "active_tape",
]


class _GradState(threading.local):
    """Per-thread autograd state: grad-enabled flag and the active tape."""

    def __init__(self):
        self.enabled = True
        self.tape = None


_STATE = _GradState()


def active_tape():
    """Return the :class:`Tape` currently recording on this thread (or None)."""
    return _STATE.tape


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
        ``arrays``/``out`` so the same function serves eager and replay.
    elementwise:
        True for ops eligible for replay-time chain fusion.
    nondiff:
        True for ops that always produce a constant (detached) output,
        e.g. the stop-gradient max used by softmax shifting.
    out_forward:
        Optional ``out_forward(attrs, arrays, out)`` writing the result
        into a pre-allocated buffer during replay (numpy ``out=`` path).
        Must be byte-identical to ``forward``.
    """

    __slots__ = ("name", "forward", "vjp", "elementwise", "nondiff",
                 "out_forward")

    def __init__(self, name, forward, vjp, *, elementwise=False,
                 nondiff=False, out_forward=None):
        self.name = name
        self.forward = forward
        self.vjp = vjp
        self.elementwise = elementwise
        self.nondiff = nondiff
        self.out_forward = out_forward

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
    ``tape`` is set when the node was recorded by an active :class:`Tape`.
    """

    __slots__ = ("prim", "attrs", "inputs", "in_data", "needs", "out_data",
                 "parents", "tape")

    def __init__(self, prim, attrs, inputs, in_data, needs, out_data):
        self.prim = prim
        self.attrs = attrs
        self.inputs = inputs
        self.in_data = in_data
        self.needs = needs
        self.out_data = out_data
        self.parents = ()
        self.tape = None

    def execute_vjp(self, grad) -> None:
        """Run this node's vjp eagerly, accumulating into grad-requiring inputs."""
        partials = self.prim.vjp(self.attrs, self.out_data, self.in_data,
                                 grad, self.needs)
        for tensor, partial in zip(self.inputs, partials):
            if partial is not None and tensor.requires_grad:
                tensor._accumulate(partial)


class Tape:
    """Recording context: a flat arena of executed :class:`TapeNode` s.

    While the tape is entered (``with tape:``), every primitive whose
    output requires grad — or whose inputs derive from a tensor registered
    via :meth:`watch` — is appended to ``nodes`` in execution order.
    Setting ``capturing`` during an eager ``backward()`` additionally
    appends each executed node to ``backward_program`` in vjp order, which
    is what :class:`CompiledGraph` replays byte-identically.
    """

    __slots__ = ("nodes", "inputs", "_input_ids", "backward_program",
                 "capturing", "volatile", "volatile_reason", "_prev")

    def __init__(self):
        self.nodes: list = []
        self.inputs: list = []
        self._input_ids: dict = {}
        self.backward_program: list = []
        self.capturing = False
        self.volatile = False
        self.volatile_reason = None

    def __enter__(self):
        if _STATE.tape is not None:
            raise RuntimeError("autograd tapes do not nest")
        self._prev = _STATE.tape
        _STATE.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _STATE.tape = self._prev
        return False

    def watch(self, tensor) -> None:
        """Register ``tensor`` as a positional replay input.

        Watched tensors are re-bound to fresh arrays on every replay, so
        they must be constants (gradients are not returned for inputs).
        """
        if tensor.requires_grad:
            raise ValueError("tape inputs must not require grad")
        if id(tensor) not in self._input_ids:
            self._input_ids[id(tensor)] = len(self.inputs)
            self.inputs.append(tensor)

    def varies(self, tensor) -> bool:
        """True if ``tensor`` is a tape input or was produced on this tape."""
        node = tensor._node
        if node is not None and node.tape is self:
            return True
        return id(tensor) in self._input_ids

    def record(self, node: TapeNode) -> None:
        """Append an executed node to the arena."""
        node.tape = self
        self.nodes.append(node)

    def mark_volatile(self, reason: str) -> None:
        """Flag the recording as non-replayable (graph shape is data-dependent)."""
        self.volatile = True
        if self.volatile_reason is None:
            self.volatile_reason = reason


class TapeCompileError(RuntimeError):
    """Raised when a recorded tape cannot be compiled for replay."""


# Source kinds for compiled instructions.
_SRC_SLOT = 0    # output of an earlier instruction
_SRC_INPUT = 1   # positional replay input array
_SRC_LEAF = 2    # leaf parameter tensor (``.data`` read live — optimizers rebind it)
_SRC_CONST = 3   # array frozen at record time


class CompiledGraph:
    """A recorded tape compiled to flat forward/backward programs.

    The forward program is a list of instructions, each a tuple of fused
    ops ``(prim, attrs, srcs, slot, out_buffer)``; the backward program
    replays the vjp order captured during the recording step's eager
    backward, accumulating into per-slot gradient buffers and — for leaf
    parameters — via ``Tensor._accumulate`` exactly as eager does.
    """

    __slots__ = ("_fprog", "_bprog", "_slots", "_gbufs", "_has",
                 "_grad_slots", "_loss_slot", "_aux_srcs", "_inputs",
                 "recorded_nodes", "instructions", "fused_chains",
                 "backward_entries")

    def __init__(self, tape: Tape, loss_tensor, aux_tensors):
        nodes = tape.nodes
        slot_of = {id(node): i for i, node in enumerate(nodes)}

        def classify(tensor):
            node = tensor._node
            if node is not None and node.tape is tape:
                return (_SRC_SLOT, slot_of[id(node)])
            if tensor.requires_grad:
                if node is not None:
                    raise TapeCompileError(
                        "input carries gradient history from outside the tape")
                return (_SRC_LEAF, tensor)
            if id(tensor) in tape._input_ids:
                return (_SRC_INPUT, tape._input_ids[id(tensor)])
            return (_SRC_CONST, tensor.data)

        node_srcs = [tuple(classify(t) for t in node.inputs) for node in nodes]

        loss_node = loss_tensor._node
        if loss_node is None or loss_node.tape is not tape:
            raise TapeCompileError("loss was not produced on the tape")
        self._loss_slot = slot_of[id(loss_node)]
        self._aux_srcs = tuple(classify(t) for t in aux_tensors)

        # Consumer counts drive the single-consumer fusion precondition.
        use_count = [0] * len(nodes)
        for srcs in node_srcs:
            for kind, payload in srcs:
                if kind == _SRC_SLOT:
                    use_count[payload] += 1
        external = {self._loss_slot}
        external.update(p for k, p in self._aux_srcs if k == _SRC_SLOT)

        base_ops = []
        for i, node in enumerate(nodes):
            prim = node.prim
            buf = np.empty_like(node.out_data) if prim.out_forward else None
            base_ops.append((prim, node.attrs, node_srcs[i], i, buf))

        # Fuse maximal chains of consecutive elementwise ops where each
        # intermediate feeds only the next op and escapes nowhere else.
        fprog: list = []
        current: list = []
        for op in base_ops:
            prim, _attrs, srcs, slot, _buf = op
            if current:
                prev = current[-1]
                prev_slot = prev[3]
                feeds = any(k == _SRC_SLOT and p == prev_slot for k, p in srcs)
                if (prim.elementwise and prev[0].elementwise and feeds
                        and use_count[prev_slot] == 1
                        and prev_slot not in external):
                    current.append(op)
                    continue
                fprog.append(tuple(current))
                current = [op]
            else:
                current = [op]
        if current:
            fprog.append(tuple(current))
        self._fprog = fprog

        group_of = {}
        for gi, ops in enumerate(fprog):
            for op in ops:
                group_of[op[3]] = gi

        # Backward program in the captured eager vjp order, grouped so a
        # fused forward chain replays as one backward instruction.
        entries = []
        grad_slots = set()
        for node in tape.backward_program:
            slot = slot_of[id(node)]
            grad_slots.add(slot)
            targets = []
            for i, tensor in enumerate(node.inputs):
                if not node.needs[i]:
                    targets.append(None)
                    continue
                kind, payload = node_srcs[slot][i]
                if kind == _SRC_SLOT:
                    grad_slots.add(payload)
                    targets.append((_SRC_SLOT, payload))
                elif kind == _SRC_LEAF:
                    targets.append((_SRC_LEAF, payload))
                else:
                    raise TapeCompileError(
                        "gradient requested for a non-leaf, non-slot input")
            entries.append((slot, node.prim, node.attrs, node_srcs[slot],
                            node.needs, tuple(targets)))
        grad_slots.add(self._loss_slot)

        bprog: list = []
        bcurrent: list = []
        bgroup = None
        for entry in entries:
            gi = group_of[entry[0]]
            if bcurrent and gi == bgroup:
                bcurrent.append(entry)
                continue
            if bcurrent:
                bprog.append(tuple(bcurrent))
            bcurrent = [entry]
            bgroup = gi
        if bcurrent:
            bprog.append(tuple(bcurrent))
        self._bprog = bprog

        self._slots = [node.out_data for node in nodes]
        self._grad_slots = sorted(grad_slots)
        self._gbufs = {s: np.empty_like(nodes[s].out_data)
                       for s in self._grad_slots}
        self._has = {s: False for s in self._grad_slots}
        self._inputs = None
        self.recorded_nodes = len(nodes)
        self.instructions = len(fprog)
        self.fused_chains = sum(1 for ops in fprog if len(ops) > 1)
        self.backward_entries = len(entries)

    def run_forward(self, arrays):
        """Replay the forward program; return ``(loss, aux_array_copies)``."""
        self._inputs = arrays
        slots = self._slots
        for ops in self._fprog:
            for prim, attrs, srcs, slot, buf in ops:
                vals = [slots[p] if k == _SRC_SLOT
                        else arrays[p] if k == _SRC_INPUT
                        else p.data if k == _SRC_LEAF
                        else p
                        for k, p in srcs]
                if buf is not None:
                    prim.out_forward(attrs, vals, buf)
                    slots[slot] = buf
                else:
                    slots[slot] = np.asarray(prim.forward(attrs, *vals),
                                             dtype=np.float64)
        loss = float(slots[self._loss_slot])
        aux = []
        for kind, payload in self._aux_srcs:
            if kind == _SRC_SLOT:
                aux.append(slots[payload].copy())
            elif kind == _SRC_INPUT:
                aux.append(arrays[payload].copy())
            elif kind == _SRC_LEAF:
                aux.append(payload.data.copy())
            else:
                aux.append(payload.copy())
        return loss, aux

    def run_backward(self):
        """Replay the captured backward program (after :meth:`run_forward`).

        Gradient partials accumulate into the graph's slot buffers; leaf
        parameters receive gradients through ``Tensor._accumulate``, so
        optimizer-visible state evolves byte-identically to eager mode.
        """
        arrays = self._inputs
        if arrays is None:
            raise RuntimeError("run_backward() before run_forward()")
        slots = self._slots
        gbufs = self._gbufs
        has = self._has
        for s in self._grad_slots:
            has[s] = False
        root = gbufs[self._loss_slot]
        root.fill(1.0)
        has[self._loss_slot] = True
        for entries in self._bprog:
            for slot, prim, attrs, srcs, needs, targets in entries:
                if not has[slot]:
                    continue
                grad = gbufs[slot]
                vals = [slots[p] if k == _SRC_SLOT
                        else arrays[p] if k == _SRC_INPUT
                        else p.data if k == _SRC_LEAF
                        else p
                        for k, p in srcs]
                partials = prim.vjp(attrs, slots[slot], vals, grad, needs)
                for target, partial in zip(targets, partials):
                    if target is None or partial is None:
                        continue
                    kind, payload = target
                    if kind == _SRC_SLOT:
                        buf = gbufs[payload]
                        partial = _unbroadcast(
                            np.asarray(partial, dtype=np.float64), buf.shape)
                        if has[payload]:
                            buf += partial
                        else:
                            np.copyto(buf, partial)
                            has[payload] = True
                    else:
                        payload._accumulate(partial)


class ReplayFunction:
    """Record-then-replay wrapper around a graph-building callable.

    ``build(*input_tensors)`` must return either a scalar loss tensor or a
    ``(loss, aux_tensors)`` pair, where every step-varying array flows in
    through the positional inputs.  The first call for a given input-shape
    signature runs eagerly under a recording :class:`Tape`; its backward
    captures the vjp order and compiles a :class:`CompiledGraph`.  Later
    calls with the same signature replay the compiled program (byte-equal
    losses and gradients, no graph construction).  A new signature falls
    back to re-recording; a volatile recording (dropout, data-dependent
    indexing) permanently reverts to eager execution.

    Call :meth:`forward` then :meth:`backward` — they are split so callers
    can inspect the loss (divergence guards) before paying for gradients.
    The caller owns gradient zeroing, exactly as with eager training.
    """

    def __init__(self, build):
        self._build = build
        self._graphs: dict = {}
        self._pending = None
        self.stats = {"records": 0, "replays": 0, "fallbacks": 0,
                      "eager_steps": 0, "volatile": False,
                      "volatile_reason": None, "recorded_nodes": 0,
                      "instructions": 0, "fused_chains": 0}

    def forward(self, *arrays):
        """Run the graph on ``arrays``; return ``(loss_value, aux_arrays)``."""
        from .tensor import Tensor

        arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
        signature = tuple(a.shape for a in arrays)
        if not self.stats["volatile"]:
            graph = self._graphs.get(signature)
            if graph is not None:
                loss, aux = graph.run_forward(arrays)
                self._pending = ("replay", graph)
                self.stats["replays"] += 1
                return loss, aux
        inputs = [Tensor(a) for a in arrays]
        if self.stats["volatile"]:
            loss_t, aux_t = self._call_build(inputs)
            self._pending = ("eager", loss_t)
            self.stats["eager_steps"] += 1
            return float(loss_t.data), [t.data.copy() for t in aux_t]
        tape = Tape()
        with tape:
            for t in inputs:
                tape.watch(t)
            loss_t, aux_t = self._call_build(inputs)
        self._pending = ("record", tape, loss_t, aux_t, signature)
        self.stats["records"] += 1
        if self._graphs:
            self.stats["fallbacks"] += 1
        return float(loss_t.data), [t.data.copy() for t in aux_t]

    def backward(self) -> None:
        """Run the backward pass matching the last :meth:`forward` call."""
        pending = self._pending
        if pending is None:
            raise RuntimeError("backward() before forward()")
        self._pending = None
        mode = pending[0]
        if mode == "replay":
            pending[1].run_backward()
            return
        if mode == "eager":
            pending[1].backward()
            return
        _, tape, loss_t, aux_t, signature = pending
        tape.capturing = True
        try:
            loss_t.backward()
        finally:
            tape.capturing = False
        if tape.volatile:
            self.stats["volatile"] = True
            self.stats["volatile_reason"] = tape.volatile_reason
            self._graphs.clear()
            return
        try:
            graph = CompiledGraph(tape, loss_t, aux_t)
        except TapeCompileError as exc:
            self.stats["volatile"] = True
            self.stats["volatile_reason"] = str(exc)
            self._graphs.clear()
            return
        self._graphs[signature] = graph
        self.stats["recorded_nodes"] = graph.recorded_nodes
        self.stats["instructions"] = graph.instructions
        self.stats["fused_chains"] = graph.fused_chains

    def _call_build(self, inputs):
        result = self._build(*inputs)
        if isinstance(result, tuple):
            loss_t, aux_t = result
            return loss_t, list(aux_t)
        return result, []
