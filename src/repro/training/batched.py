"""Batched multi-room truncated BPTT over stacked ``(B, N, ...)`` tensors.

The serial training path runs one autograd graph per room per BPTT window.
This module stacks a batch of same-shape rooms along a leading batch axis
and runs **one** graph (and one optimiser step) per window for the whole
batch: per-step features become ``(B, N, F)``, adjacency operators become
``(B, N, N)``, and the POSHGNN loss is summed across rooms with per-room
``beta`` weights carried as a ``(B,)`` input.  Each window builds its
graph eagerly and runs the ordinary ``Tensor.backward`` sweep; the gain
over the serial loop comes from one graph of ``(B, ...)`` arrays in place
of ``B`` graphs of small ones.

The pieces here are model-agnostic; model-specific glue (which streams to
precompute per room, how one unrolled step consumes them) lives with the
trainers — see :mod:`repro.models.poshgnn.trainer` and
:mod:`repro.models.baselines.recurrent`.

Batched semantics are *minibatching*, not a bit-for-bit reordering of the
serial loop: the serial path takes one optimiser step per room per window,
the batched path one step per batch per window.  Losses agree with the
serial path to float tolerance at ``lr=0`` (asserted by the training
bench), and ``tests/training/golden_batched_train.json`` pins the
batched path's trained bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn import Tensor, clip_grad_norm
from ..obs import DEFAULT_VALUE_BOUNDARIES, PERF

__all__ = [
    "RoomEpisode",
    "batched_step_loss",
    "BatchedBPTTRunner",
]

#: Stream names every batched spec must provide — they feed the loss.
LOSS_STREAMS = ("preference", "presence", "adjacency")


@dataclass
class RoomEpisode:
    """Precomputed per-step arrays for one room's training episode.

    ``streams`` maps a stream name (e.g. ``"features"``, ``"adjacency"``)
    to a list of ``horizon + 1`` per-step arrays.  All model-side
    preprocessing that is numpy-only (MIA masks, transition matrices, row
    normalisation) happens once here, per room, so the batched window loop
    only stacks arrays and runs the graph.
    """

    beta: float
    horizon: int
    streams: dict

    def __post_init__(self):
        for name in LOSS_STREAMS:
            if name not in self.streams:
                raise ValueError(f"episode is missing stream {name!r}")
        for name, steps in self.streams.items():
            if len(steps) != self.horizon + 1:
                raise ValueError(
                    f"stream {name!r} has {len(steps)} steps for horizon "
                    f"{self.horizon}")

    @property
    def num_users(self) -> int:
        """Number of users (nodes) in the room."""
        return self.streams["preference"][0].shape[0]


def batched_step_loss(recommendation, previous, preference, presence,
                      adjacency, betas, one_minus_betas, alpha):
    """POSHGNN step loss summed over a batch of rooms (Eq. 8, batched).

    Mirrors :meth:`repro.models.poshgnn.loss.POSHGNNLoss.step_loss` with a
    leading batch axis: ``recommendation``/``previous``/``preference``/
    ``presence`` are ``(B, N)``, ``adjacency`` is ``(B, N, N)`` and
    ``betas``/``one_minus_betas`` are ``(B,)`` tensors so each room keeps
    its own presence/preference trade-off.  The normaliser ``gamma`` is
    computed *as a tensor* from the per-step inputs (the serial path uses
    a Python float).
    """
    gain_preference = ((recommendation * preference).sum(axis=-1)
                       * one_minus_betas).sum()
    gain_presence = ((recommendation * previous * presence).sum(axis=-1)
                     * betas).sum()
    num_rooms, num_users = recommendation.shape
    row = recommendation.reshape((num_rooms, 1, num_users)).matmul(adjacency)
    occlusion = (row.reshape((num_rooms, num_users))
                 * recommendation).sum() * alpha
    gamma = ((preference.sum(axis=-1) * one_minus_betas).sum()
             + (presence.sum(axis=-1) * betas).sum())
    return occlusion - gain_preference - gain_presence + gamma


def _stack_window(episodes, names, start, stop):
    """Per-step ``{name: (B, ...) tensor}`` dicts for ``start..stop-1``."""
    return [{name: Tensor(np.stack([episode.streams[name][t]
                                    for episode in episodes]))
             for name in names}
            for t in range(start, stop)]


class BatchedBPTTRunner:
    """Windowed truncated-BPTT loop over a batch of stacked rooms.

    Parameters
    ----------
    step_fn:
        ``step_fn(streams, hidden, previous) -> (recommendation, hidden)``
        running one unrolled model step on batched tensors; ``streams`` is
        a dict of per-step ``(B, ...)`` tensors keyed by ``stream_names``.
    stream_names:
        Ordered stream names; must include :data:`LOSS_STREAMS`.
    initial_carries:
        ``initial_carries(num_rooms, num_users)`` returning the zero-state
        ``(hidden, previous_recommendation)`` arrays for a new episode.
    parameters:
        Zero-argument callable yielding the trainable parameters (a bound
        ``model.parameters`` — called per window so gradient clipping sees
        live parameters even after a model re-initialisation).
    """

    def __init__(self, step_fn, stream_names, alpha, bptt_window,
                 parameters, optimizer, grad_clip, initial_carries):
        missing = [name for name in LOSS_STREAMS if name not in stream_names]
        if missing:
            raise ValueError(f"stream_names is missing {missing}")
        self.step_fn = step_fn
        self.stream_names = tuple(stream_names)
        self.alpha = alpha
        self.bptt_window = bptt_window
        self.parameters = parameters
        self.optimizer = optimizer
        self.grad_clip = grad_clip
        self.initial_carries = initial_carries

    def _window_loss(self, betas, hidden, previous, steps):
        """Unroll one window; returns ``(loss, hidden, previous)`` tensors."""
        one_minus_betas = 1.0 - betas
        loss = None
        for streams in steps:
            recommendation, hidden = self.step_fn(streams, hidden, previous)
            step = batched_step_loss(
                recommendation, previous, streams["preference"],
                streams["presence"], streams["adjacency"],
                betas, one_minus_betas, self.alpha)
            loss = step if loss is None else loss + step
            previous = recommendation
        return loss, hidden, previous

    def run(self, episodes, guard=None, epoch: int = 0) -> float:
        """Train one batch of episodes; returns the summed window losses.

        The window mechanics mirror the serial loop exactly: divergence
        guard on the window loss *before* gradients, gradient clipping
        and guard on the global norm after, one optimiser step per
        window, and detached carries across window boundaries.
        """
        if not episodes:
            raise ValueError("no episodes to train")
        horizon = episodes[0].horizon
        num_users = episodes[0].num_users
        for episode in episodes[1:]:
            if episode.horizon != horizon or episode.num_users != num_users:
                raise ValueError(
                    "batched episodes must share horizon and room size")
        betas = Tensor([episode.beta for episode in episodes])
        hidden, previous = (Tensor(carry) for carry in self.initial_carries(
            len(episodes), num_users))
        total_loss = 0.0
        start = 0
        while start <= horizon:
            stop = min(start + self.bptt_window, horizon + 1)
            steps = _stack_window(episodes, self.stream_names, start, stop)
            with PERF.scope("train.batched_window",
                            {"rooms": len(episodes), "steps": stop - start}):
                loss, hidden, previous = self._window_loss(
                    betas, hidden, previous, steps)
                window_value = loss.item()
                if guard is not None:
                    guard.check_loss(window_value, epoch)
                self.optimizer.zero_grad()
                loss.backward()
                hidden, previous = hidden.detach(), previous.detach()
                norm = clip_grad_norm(self.parameters(), self.grad_clip)
                if guard is not None:
                    guard.check_grad_norm(norm, epoch)
                PERF.observe("train.grad_norm", norm,
                             boundaries=DEFAULT_VALUE_BOUNDARIES)
                PERF.observe("train.window_loss", window_value,
                             boundaries=DEFAULT_VALUE_BOUNDARIES)
                self.optimizer.step()
            total_loss += window_value
            start = stop
        return total_loss
