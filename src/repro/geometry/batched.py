"""Batched occlusion-graph conversion: the one converter (Sec. III-B).

:meth:`BatchedOcclusionConverter.convert_rooms` turns rows of
``(positions, target)`` into static occlusion graphs in one broadcast
NumPy pass: per-row distances, arc centers and half-widths, then the
arc-intersection adjacency, chunked over rows so the kernel's scratch
buffers stay cache-resident.  Every entry point is a set of rows:

* the serving engine's micro-batch is one row per room;
* a streamed :meth:`~repro.serving.RoomSession.step` is one row;
* :meth:`BatchedOcclusionConverter.convert_dogs` is the ``T x V``
  (step, target) rows of a trajectory.

Each row is the paper's converter applied to one target at one
instant: place the target at the centre of its 360-degree view, give
every other user the arc its body occupies, and connect two users
whenever their arcs intersect (closed intervals).  The dense per-target
converter lives in ``tests/oracles.py``; the equivalence tests in
``tests/geometry/test_batched_equivalence.py`` pin exact float64
equality against it for random rooms and the ``view_limit``/``fov``
variants.
"""

from __future__ import annotations

import math

import numpy as np

from ..obs import PERF
from .arcs import angular_separation
from .dog import DynamicOcclusionGraph
from .occlusion import DEFAULT_BODY_RADIUS, StaticOcclusionGraph

__all__ = ["BatchedOcclusionConverter", "RoomGraphs", "stacked_rooms_field"]

TWO_PI = 2.0 * math.pi

#: Per-chunk element budget for the arc-intersection kernel.  The
#: kernel makes six passes over its scratch buffers, so keeping a
#: chunk's buffers cache-resident (2 x 256 KiB at this setting) beats
#: streaming megabyte-scale buffers from DRAM six times (~25% measured
#: on the N = 128 x 16-target benchmark scene).
_KERNEL_WORKSPACE_ELEMENTS = 32_768


class RoomGraphs(list):
    """Per-room graphs plus the contiguous batch arrays they view.

    :meth:`BatchedOcclusionConverter.convert_rooms` builds one
    ``(B, N, N)`` adjacency and one ``(B, N)`` distance array and hands
    out per-room :class:`StaticOcclusionGraph` views into them.  This
    list subclass keeps the batch arrays reachable so downstream batched
    kernels (frame assembly, visibility resolution) can reuse them
    instead of re-stacking ``B`` views into a fresh copy.  It behaves
    exactly like the plain list it degrades to.
    """

    def __init__(self, graphs, adjacency: np.ndarray, distances: np.ndarray):
        super().__init__(graphs)
        self.adjacency = adjacency    # (B, N, N) bool
        self.distances = distances    # (B, N) float64


def stacked_rooms_field(graphs, attr: str) -> np.ndarray:
    """The batched ``attr`` array across ``graphs``, without copying
    when ``graphs`` is a :class:`RoomGraphs` batch that already owns it.
    """
    batched = getattr(graphs, attr, None)
    if batched is not None and len(batched) == len(graphs):
        return batched
    return np.stack([getattr(graph, attr) for graph in graphs])


class BatchedOcclusionConverter:
    """Builds static occlusion graphs for rows of ``(positions, target)``.

    Parameters
    ----------
    body_radius:
        Radius of the disk each user's body projects onto the floor.
    view_limit:
        Optional maximum distance beyond which users do not take part in
        the view (they neither occlude nor get occluded).  ``None``
        means unlimited (the paper's 360-degree panoramic model).
    fov:
        Optional field of view in ``(0, 2*pi]`` around ``facing``: users
        outside the viewing cone neither occlude nor get occluded, an
        extension beyond the paper for headset-realistic viewports.
    """

    def __init__(self, body_radius: float = DEFAULT_BODY_RADIUS,
                 view_limit: float | None = None,
                 fov: float | None = None):
        if body_radius <= 0:
            raise ValueError("body_radius must be positive")
        if view_limit is not None and view_limit <= 0:
            raise ValueError("view_limit must be positive when given")
        if fov is not None and not 0.0 < fov <= TWO_PI:
            raise ValueError("fov must be in (0, 2*pi] when given")
        self.body_radius = body_radius
        self.view_limit = view_limit
        self.fov = fov
        self._scratch: dict = {}

    # ------------------------------------------------------------------
    def _buffers(self, shape: tuple) -> tuple:
        """Two preallocated float64 scratch arrays of ``shape``."""
        cached = self._scratch.get(shape)
        if cached is None:
            cached = (np.empty(shape), np.empty(shape))
            self._scratch[shape] = cached
        return cached

    def _adjacency_chunk(self, centers: np.ndarray, half_widths: np.ndarray,
                         out: np.ndarray) -> None:
        """Arc-intersection adjacency for a chunk of rows, in place.

        The closed-interval predicate ``sep(ci, cj) <= hi + hj`` with
        ``sep`` the angular separation.  ``diff = |ci - cj|`` lies in
        ``[0, 2pi]`` because arctan2 centers lie in ``[-pi, pi]``.  On
        that domain ``diff % 2pi`` is ``diff``, except at exactly
        ``2pi`` where the remainder is ``0`` — and there
        ``min(diff, 2pi - diff) = min(2pi, 0) = 0`` agrees with
        ``min(0, 2pi) = 0``, so the modulo can be dropped outright.
        """
        shape = (centers.shape[0],) + (centers.shape[1],) * 2
        diff, scratch = self._buffers(shape)
        np.subtract(centers[:, :, None], centers[:, None, :], out=diff)
        np.abs(diff, out=diff)
        np.subtract(TWO_PI, diff, out=scratch)
        np.minimum(diff, scratch, out=diff)
        np.add(half_widths[:, :, None], half_widths[:, None, :], out=scratch)
        np.less_equal(diff, scratch, out=out)

    # ------------------------------------------------------------------
    def convert_rooms(self, positions: np.ndarray, targets,
                      facing: float = 0.0) -> list:
        """One static occlusion graph per ``(positions, target)`` row.

        ``positions`` stacks ``B`` rows as ``(B, N, 2)`` floor
        coordinates or ``(B, N, 3)`` paper-convention ``(x, 0, z)``
        points (every row has the same user count) and ``targets``
        names one target per row, so row ``b`` of the result is the
        graph of ``targets[b]`` at ``positions[b]``.  The rows may be
        different rooms (the serving engine), one room (a streamed
        step) or the steps and targets of one trajectory
        (:meth:`convert_dogs`).  ``facing`` matters only with a finite
        ``fov`` and applies to every row.

        The diagonal and each target's row and column are False, and
        the adjacency is symmetric (the visibility kernel relies on
        it).  The target's own distance is 0 and its arc is empty.
        """
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 3 or positions.shape[2] not in (2, 3):
            raise ValueError(
                f"expected (B,N,2) or (B,N,3) stacked positions, got "
                f"{positions.shape}")
        if positions.shape[2] == 3:
            positions = positions[:, :, [0, 2]]   # paper's (x, 0, z)
        rooms, count = positions.shape[:2]
        targets = np.asarray(targets, dtype=np.int64).ravel()
        if targets.size != rooms:
            raise ValueError(
                f"need one target per room: {rooms} rooms, "
                f"{targets.size} targets")
        if targets.size and (targets.min() < 0 or targets.max() >= count):
            raise IndexError(
                f"targets out of range for {count} users: {targets}")
        rows = np.arange(rooms)

        with PERF.scope("geom.convert_rooms"):
            deltas = positions - positions[rows, targets][:, None, :]
            distances = np.empty((rooms, count))
            np.hypot(deltas[..., 0], deltas[..., 1], out=distances)
            centers = np.arctan2(deltas[..., 1], deltas[..., 0])
            centers[rows, targets] = 0.0

            # A user closer than its own radius fills half the view.
            ratio = np.ones(distances.shape)
            np.divide(self.body_radius, distances, out=ratio,
                      where=distances > self.body_radius)
            half_widths = np.where(distances <= self.body_radius,
                                   math.pi / 2.0,
                                   np.arcsin(np.clip(ratio, 0.0, 1.0)))
            half_widths[rows, targets] = 0.0

            adjacency = np.empty((rooms, count, count), dtype=bool)
            chunk = max(1, _KERNEL_WORKSPACE_ELEMENTS
                        // max(1, count * count))
            for start in range(0, rooms, chunk):
                stop = min(start + chunk, rooms)
                self._adjacency_chunk(centers[start:stop],
                                      half_widths[start:stop],
                                      adjacency[start:stop])

            diag = np.arange(count)
            adjacency[:, diag, diag] = False
            adjacency[rows, targets, :] = False
            adjacency[rows, :, targets] = False

            if self.view_limit is not None:
                visible = distances <= self.view_limit
                visible[rows, targets] = True
                adjacency &= visible[:, None, :]
                adjacency &= visible[:, :, None]

            if self.fov is not None:
                in_cone = angular_separation(centers, facing) \
                    <= self.fov / 2.0 + half_widths
                in_cone[rows, targets] = True
                adjacency &= in_cone[:, None, :]
                adjacency &= in_cone[:, :, None]

        return RoomGraphs(
            [StaticOcclusionGraph(target=int(targets[b]),
                                  adjacency=adjacency[b],
                                  distances=distances[b],
                                  centers=centers[b],
                                  half_widths=half_widths[b],
                                  body_radius=self.body_radius)
             for b in range(rooms)],
            adjacency=adjacency, distances=distances)

    def convert_dogs(self, trajectory: np.ndarray, targets) -> dict:
        """Dynamic occlusion graphs for every target of a trajectory.

        ``trajectory`` is ``(T, N, 2)`` or ``(T, N, 3)``.  The ``T x V``
        (step, target) rows go through one :meth:`convert_rooms` call,
        target-major, so each target's snapshots view one contiguous
        ``(T, N, N)`` block of the batch adjacency.
        """
        trajectory = np.asarray(trajectory, dtype=np.float64)
        if trajectory.ndim != 3 or trajectory.shape[2] not in (2, 3):
            raise ValueError(
                f"expected (T,N,2) or (T,N,3) trajectory, got "
                f"{trajectory.shape}")
        if trajectory.shape[2] == 3:
            trajectory = trajectory[:, :, [0, 2]]   # paper's (x, 0, z)
        targets = np.asarray(targets, dtype=np.int64).ravel()
        steps = trajectory.shape[0]
        rows = np.broadcast_to(trajectory,
                               (targets.size,) + trajectory.shape)
        graphs = self.convert_rooms(
            rows.reshape((-1,) + trajectory.shape[1:]),
            np.repeat(targets, steps))
        return {int(target): DynamicOcclusionGraph(
                    target=int(target),
                    snapshots=graphs[slot * steps:(slot + 1) * steps])
                for slot, target in enumerate(targets)}
