"""Angular arcs on the target user's 360-degree view circle.

The occlusion-graph converter (paper Sec. III-B) maps every surrounding
user ``w`` to the arc ``I_t^w`` that ``w``'s body occupies in the target's
panoramic view; two users conflict when their arcs intersect.  Arcs wrap
around the +/- pi seam, so all interval logic here is wraparound-aware.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Arc", "arc_of_user", "angular_separation", "arcs_intersect"]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Arc:
    """A circular arc described by its center bearing and half-width.

    ``center`` is in ``[-pi, pi]``; ``half_width`` in ``[0, pi]``.  A
    half-width of pi covers the full circle.
    """

    center: float
    half_width: float

    def __post_init__(self):
        if not 0.0 <= self.half_width <= math.pi:
            raise ValueError(f"half_width must be in [0, pi], got {self.half_width}")

    @property
    def width(self) -> float:
        """Full angular width of the arc."""
        return 2.0 * self.half_width

    def contains(self, angle: float) -> bool:
        """Whether ``angle`` (radians) falls inside the arc."""
        return angular_separation(self.center, angle) <= self.half_width

    def intersects(self, other: "Arc") -> bool:
        """Whether two arcs overlap on the circle (closed intervals)."""
        separation = angular_separation(self.center, other.center)
        return separation <= self.half_width + other.half_width

    def endpoints(self) -> tuple[float, float]:
        """(start, end) angles, each normalised to [-pi, pi]."""
        return (_wrap(self.center - self.half_width),
                _wrap(self.center + self.half_width))


def _wrap(angle: float) -> float:
    """Normalise an angle to [-pi, pi]."""
    return (angle + math.pi) % TWO_PI - math.pi


def angular_separation(a, b):
    """Smallest absolute angular difference between bearings ``a`` and ``b``.

    Works elementwise on arrays; result is in ``[0, pi]``.
    """
    diff = np.abs(np.asarray(a) - np.asarray(b)) % TWO_PI
    return np.minimum(diff, TWO_PI - diff)


def arc_of_user(target_position: np.ndarray, user_position: np.ndarray,
                body_radius: float) -> Arc:
    """The arc a user's body occupies in the target's panoramic view.

    The user is modelled as a disk of ``body_radius``; at distance ``d``
    the subtended half-angle is ``asin(r / d)``.  A user closer than its
    own radius fills half the view (half-width pi/2) — the converter's
    degenerate-contact case.
    """
    delta = np.asarray(user_position, dtype=np.float64) - np.asarray(
        target_position, dtype=np.float64)
    distance = float(np.hypot(delta[0], delta[1]))
    center = math.atan2(delta[1], delta[0])
    if distance <= body_radius:
        return Arc(center=center, half_width=math.pi / 2.0)
    return Arc(center=center, half_width=math.asin(body_radius / distance))


def arcs_intersect(centers: np.ndarray, half_widths: np.ndarray) -> np.ndarray:
    """Vectorised pairwise arc-intersection predicate.

    Parameters are per-user arrays; returns a boolean ``(N, N)`` matrix with
    a False diagonal.  The dense reference form of the occlusion
    converter's batched arc kernel, which must agree with it exactly.
    """
    centers = np.asarray(centers, dtype=np.float64)
    half_widths = np.asarray(half_widths, dtype=np.float64)
    separation = angular_separation(centers[:, None], centers[None, :])
    overlap = separation <= (half_widths[:, None] + half_widths[None, :])
    np.fill_diagonal(overlap, False)
    return overlap
