"""Batched all-targets occlusion-graph conversion.

:class:`~repro.geometry.occlusion.OcclusionGraphConverter` builds the
static occlusion graph of *one* target user at *one* time step.  Paper
tables, however, evaluate every method for many target users of the same
room, so the per-target converter re-pays the O(N^2) arc work
``targets x steps`` times, mostly in Python-level dispatch over small
arrays.

:class:`BatchedOcclusionConverter` computes centers, half-widths,
distances and the arc-intersection adjacency for **every requested
target of a frame in one broadcasted NumPy pass**, reusing preallocated
``(V, N, N)`` workspaces across steps (and chunking over targets so the
workspace stays bounded for very large rooms).

Bit-identity contract
---------------------
The batched kernel is *exactly* equivalent to the per-target converter —
the same elementwise operations are applied to the same float64 values,
only over a broadcasted leading axis.  The single rewrite is the
angular-separation modulo: the per-target path computes
``|ci - cj| % 2pi`` where both centers come from ``arctan2`` and hence
lie in ``[-pi, pi]``, so ``|ci - cj|`` lies in ``[0, 2pi]``.  On that
domain the IEEE-exact remainder is the identity except at exactly
``2pi`` (which maps to ``0.0``), so the kernel replaces the expensive
``%`` ufunc with a compare-and-assign.  The golden equivalence tests in
``tests/geometry/test_batched_equivalence.py`` assert exact array
equality against :meth:`OcclusionGraphConverter.convert` for random
rooms and the ``view_limit``/``fov`` variants.
"""

from __future__ import annotations

import math

import numpy as np

from ..obs import PERF
from .arcs import angular_separation
from .dog import DynamicOcclusionGraph
from .occlusion import (
    DEFAULT_BODY_RADIUS,
    OcclusionGraphConverter,
    StaticOcclusionGraph,
)
from .space import project_to_floor

__all__ = ["BatchedOcclusionConverter", "MultiTargetGraphs", "RoomGraphs",
           "stacked_rooms_field"]

TWO_PI = 2.0 * math.pi

#: Workspace budget: at most this many float64 elements per scratch
#: buffer, so batching N = 200 rooms over all 200 targets does not
#: allocate gigabyte-scale intermediates.
_MAX_WORKSPACE_ELEMENTS = 2_000_000

#: Per-chunk element budget for the arc-intersection kernel.  Much
#: smaller than the workspace budget on purpose: the kernel makes six
#: passes over its scratch buffers, so keeping a chunk's buffers
#: cache-resident (2 x 256 KiB at this setting) beats streaming
#: megabyte-scale buffers from DRAM six times (~25% measured on the
#: N = 128 x 16-target benchmark scene).
_KERNEL_WORKSPACE_ELEMENTS = 32_768


class MultiTargetGraphs:
    """All targets' static occlusion graphs for one time step.

    A thin container over the batched arrays; :meth:`graph` materialises
    the per-target :class:`StaticOcclusionGraph` views lazily.
    """

    def __init__(self, targets: np.ndarray, adjacency: np.ndarray,
                 distances: np.ndarray, centers: np.ndarray,
                 half_widths: np.ndarray, body_radius: float):
        self.targets = targets          # (V,) int
        self.adjacency = adjacency      # (V, N, N) bool
        self.distances = distances      # (V, N)
        self.centers = centers          # (V, N)
        self.half_widths = half_widths  # (V, N)
        self.body_radius = body_radius

    @property
    def num_targets(self) -> int:
        """Number of target users batched in this frame."""
        return len(self.targets)

    def graph(self, slot: int) -> StaticOcclusionGraph:
        """The ``slot``-th target's static occlusion graph."""
        return StaticOcclusionGraph(
            target=int(self.targets[slot]),
            adjacency=self.adjacency[slot],
            distances=self.distances[slot],
            centers=self.centers[slot],
            half_widths=self.half_widths[slot],
            body_radius=self.body_radius,
        )

    def graphs(self) -> list:
        """All targets' graphs, in ``targets`` order."""
        return [self.graph(i) for i in range(self.num_targets)]


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
    """Builds occlusion graphs for many targets in one broadcasted pass.

    Accepts the same parameters as :class:`OcclusionGraphConverter` and
    produces graphs that are exactly equal (adjacency, distances,
    centers, half-widths) to running the per-target converter once per
    target.
    """

    def __init__(self, body_radius: float = DEFAULT_BODY_RADIUS,
                 view_limit: float | None = None,
                 fov: float | None = None):
        # Reuse the scalar converter's parameter validation so both
        # paths reject the same inputs.
        reference = OcclusionGraphConverter(body_radius=body_radius,
                                            view_limit=view_limit, fov=fov)
        self.body_radius = reference.body_radius
        self.view_limit = reference.view_limit
        self.fov = reference.fov
        self._scratch: dict = {}

    @classmethod
    def like(cls, converter: OcclusionGraphConverter
             ) -> "BatchedOcclusionConverter":
        """A batched converter with the same parameters as ``converter``."""
        return cls(body_radius=converter.body_radius,
                   view_limit=converter.view_limit, fov=converter.fov)

    # ------------------------------------------------------------------
    def _buffers(self, shape: tuple) -> tuple:
        """Two preallocated float64 scratch arrays of ``shape``."""
        cached = self._scratch.get(shape)
        if cached is None:
            cached = (np.empty(shape), np.empty(shape))
            self._scratch[shape] = cached
        return cached

    def _polar_fields(self, floor: np.ndarray, targets: np.ndarray
                      ) -> tuple:
        """Distances, centers and half-widths for every target at once.

        ``floor`` may be ``(N, 2)`` (one step) or ``(T, N, 2)`` (a whole
        trajectory); the target axis is broadcast in either case, so the
        elementwise operations — and therefore the float64 results — are
        exactly those of the per-target converter.
        """
        deltas = floor[..., None, :, :] \
            - floor[..., targets, :][..., :, None, :]
        distances = np.hypot(deltas[..., 0], deltas[..., 1])
        centers = np.arctan2(deltas[..., 1], deltas[..., 0])
        slots = np.arange(targets.size)
        centers[..., slots, targets] = 0.0

        ratio = np.ones(distances.shape)
        np.divide(self.body_radius, distances, out=ratio,
                  where=distances > self.body_radius)
        half_widths = np.where(distances <= self.body_radius,
                               math.pi / 2.0,
                               np.arcsin(np.clip(ratio, 0.0, 1.0)))
        half_widths[..., slots, targets] = 0.0
        return distances, centers, half_widths

    def _frame_graphs(self, targets: np.ndarray, distances: np.ndarray,
                      centers: np.ndarray, half_widths: np.ndarray,
                      facing: float) -> MultiTargetGraphs:
        """Assemble one step's batched graphs from its polar fields."""
        num_targets, count = centers.shape
        slots = np.arange(num_targets)

        adjacency = np.empty((num_targets, count, count), dtype=bool)
        chunk = max(1, _KERNEL_WORKSPACE_ELEMENTS // max(1, count * count))
        for start in range(0, num_targets, chunk):
            stop = min(start + chunk, num_targets)
            self._adjacency_chunk(centers[start:stop],
                                  half_widths[start:stop],
                                  adjacency[start:stop])

        diag = np.arange(count)
        adjacency[:, diag, diag] = False
        adjacency[slots, targets, :] = False
        adjacency[slots, :, targets] = False

        if self.view_limit is not None:
            visible = distances <= self.view_limit
            visible[slots, targets] = True
            adjacency &= visible[:, None, :]
            adjacency &= visible[:, :, None]

        if self.fov is not None:
            in_cone = angular_separation(centers, facing) \
                <= self.fov / 2.0 + half_widths
            in_cone[slots, targets] = True
            adjacency &= in_cone[:, None, :]
            adjacency &= in_cone[:, :, None]

        return MultiTargetGraphs(targets=targets, adjacency=adjacency,
                                 distances=distances, centers=centers,
                                 half_widths=half_widths,
                                 body_radius=self.body_radius)

    def convert_frame(self, positions: np.ndarray, targets,
                      facing: float = 0.0) -> MultiTargetGraphs:
        """All ``targets``' static occlusion graphs at one instant.

        ``facing`` matters only with a finite ``fov`` and applies to all
        targets, mirroring :meth:`OcclusionGraphConverter.convert`.
        """
        floor = project_to_floor(positions)
        count = floor.shape[0]
        targets = np.asarray(targets, dtype=np.int64).ravel()
        if targets.size and (targets.min() < 0 or targets.max() >= count):
            raise IndexError(
                f"targets out of range for {count} users: {targets}")
        with PERF.scope("geom.convert_frame"):
            distances, centers, half_widths = self._polar_fields(floor,
                                                                 targets)
            return self._frame_graphs(targets, distances, centers,
                                      half_widths, facing)

    def _adjacency_chunk(self, centers: np.ndarray, half_widths: np.ndarray,
                         out: np.ndarray) -> None:
        """Arc-intersection adjacency for a chunk of targets, in place.

        Reproduces ``arcs_intersect`` exactly: ``diff = |ci - cj|`` lies
        in ``[0, 2pi]`` because arctan2 centers lie in ``[-pi, pi]``.  On
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
        """One static occlusion graph per ``(room, target)`` pair.

        The cross-room micro-batching kernel behind
        :class:`~repro.serving.SessionEngine`: ``positions`` stacks one
        instant of ``B`` *different* rooms as ``(B, N, 2)`` (every room
        in the batch must have the same user count) and ``targets``
        names one target per room, so row ``b`` of the result is the
        graph of ``targets[b]`` in room ``b``.  This differs from
        :meth:`convert_frame`, which builds many targets of one shared
        position set.

        Bit-identity: row ``b`` equals
        ``OcclusionGraphConverter.convert(positions[b], targets[b],
        facing)`` exactly — the same float64 elementwise operations run
        over a broadcast leading axis, and the arc kernel is the one
        shared with :meth:`convert_frame`
        (``tests/geometry/test_batched_equivalence.py`` pins it).
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

    # ------------------------------------------------------------------
    def convert_trajectory(self, trajectory: np.ndarray, targets
                           ) -> list:
        """Per-target DOG snapshot lists over a ``(T, N, 2)`` trajectory.

        The polar fields (distances, centers, half-widths) of *all*
        steps and *all* targets are computed in one broadcasted pass
        (chunked over steps to bound the workspace); only the per-step
        arc-intersection kernel walks the time axis.  Returns one
        ``list[StaticOcclusionGraph]`` (length ``T``) per target, in
        ``targets`` order.
        """
        trajectory = np.asarray(trajectory, dtype=np.float64)
        if trajectory.ndim != 3 or trajectory.shape[2] not in (2, 3):
            raise ValueError(
                f"expected (T,N,2) or (T,N,3) trajectory, got "
                f"{trajectory.shape}")
        if trajectory.shape[2] == 3:
            trajectory = trajectory[:, :, [0, 2]]   # paper's (x, 0, z)
        horizon, count = trajectory.shape[:2]
        targets = np.asarray(targets, dtype=np.int64).ravel()
        if targets.size and (targets.min() < 0 or targets.max() >= count):
            raise IndexError(
                f"targets out of range for {count} users: {targets}")

        per_target: list[list] = [[] for _ in range(targets.size)]
        step_chunk = max(1, _MAX_WORKSPACE_ELEMENTS
                         // max(1, 2 * targets.size * count))
        for start in range(0, horizon, step_chunk):
            stop = min(start + step_chunk, horizon)
            with PERF.scope("geom.polar_fields"):
                distances, centers, half_widths = self._polar_fields(
                    trajectory[start:stop], targets)
            with PERF.scope("geom.frame_graphs"):
                for t in range(stop - start):
                    frame = self._frame_graphs(targets, distances[t],
                                               centers[t], half_widths[t],
                                               facing=0.0)
                    for slot in range(targets.size):
                        per_target[slot].append(frame.graph(slot))
        return per_target

    def convert_dogs(self, trajectory: np.ndarray, targets) -> dict:
        """Dynamic occlusion graphs for every target of a trajectory."""
        targets = np.asarray(targets, dtype=np.int64).ravel()
        snapshot_lists = self.convert_trajectory(trajectory, targets)
        return {int(target): DynamicOcclusionGraph(target=int(target),
                                                   snapshots=snapshots)
                for target, snapshots in zip(targets, snapshot_lists)}
