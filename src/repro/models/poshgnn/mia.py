"""MIA — Multi-modal Information Aggregator (paper Sec. IV-A).

MIA turns the raw social-XR scene at step ``t`` into the POSHGNN inputs:

* ``x_hat_t`` — distance-normalised node features (``Frame.features()``),
* ``Delta_t = [e^0 || e^1 || e^2]`` — structural change of the dynamic
  occlusion graph between ``t-1`` and ``t``,
* ``m_t`` — the hybrid-participation mask pruning users physically
  occluded by co-located MR participants,
* ``A_t`` — the occlusion adjacency consumed by the GNN layers.

The utility pruning/normalisation half of MIA lives in frame assembly
(:func:`repro.core.scene.build_room_frames`); this class adds the
temporal part (tracking ``A_{t-1}`` across calls) and packages
everything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...core.scene import Frame
from ...geometry.dog import _delta_and_degree

__all__ = ["MIA", "MIAOutput", "row_normalise"]


@dataclass
class MIAOutput:
    """Aggregated model inputs for one step."""

    features: np.ndarray      # x_hat_t, (N, 4)
    delta: np.ndarray         # Delta_t, (N, 3)
    mask: np.ndarray          # m_t, (N,)
    adjacency: np.ndarray     # A_t, (N, N) float (raw; used by the loss)
    propagation: np.ndarray   # A_t / mean degree (used by the GNNs)


def row_normalise(adjacency: np.ndarray) -> np.ndarray:
    """Globally scaled adjacency ``A / mean_degree`` for GNN propagation.

    Conference occlusion graphs have degrees in the tens-to-hundreds;
    raw sum aggregation at that scale saturates the sigmoid heads, while
    per-row normalisation would erase the degree signal the de-occlusion
    head needs (how contested a user's arc is).  Dividing by the mean
    degree keeps relative degrees visible with bounded magnitudes; the
    loss keeps the raw ``A_t``.
    """
    adjacency = np.asarray(adjacency, dtype=np.float64)
    return _scale_by_mean_degree(adjacency, adjacency.sum(axis=1))


def _scale_by_mean_degree(adjacency, degree):
    return adjacency / max(1.0, float(degree.mean()))


class MIA:
    """Stateful aggregator; call :meth:`reset` at episode start.

    Parameters
    ----------
    use_normalised:
        When False, raw (unnormalised, unpruned) utilities are passed
        through and the mask only excludes the target — the "Only PDR"
        ablation configuration.
    use_delta:
        When False, ``Delta_t`` collapses to the constant ``e^0`` column —
        isolating the contribution of the structural-difference features.
    """

    def __init__(self, use_normalised: bool = True, use_delta: bool = True):
        self.use_normalised = use_normalised
        self.use_delta = use_delta
        self._previous_adjacency: np.ndarray | None = None

    def reset(self) -> None:
        """Forget the previous step (start of a new episode)."""
        self._previous_adjacency = None

    def process(self, frame: Frame) -> MIAOutput:
        """Aggregate one frame into model inputs and advance state."""
        adjacency = frame.graph.adjacency_float()
        delta, degree = _delta_and_degree(adjacency, self._previous_adjacency)
        # Scale raw propagation counts into a stable input range.
        delta[:, 1:] = (delta[:, 1:] / max(float(np.abs(delta[:, 1:]).max()),
                                           1.0) if self.use_delta else 0.0)

        if self.use_normalised:
            features = frame.features()
            mask = frame.mask.copy()
        else:
            features = frame.raw_features()
            mask = np.ones(frame.num_users)
            mask[frame.target] = 0.0

        # A_{t-1} is carried as the graph's bool adjacency (N^2 bytes,
        # an eighth of the float copy); _delta_and_degree casts it back.
        self._previous_adjacency = frame.graph.adjacency
        return MIAOutput(features=features, delta=delta, mask=mask,
                         adjacency=adjacency,
                         propagation=_scale_by_mean_degree(adjacency, degree))
