"""``repro.geometry`` — spatial substrate for social XR occlusion.

Implements the paper's occlusion-graph converter (Sec. III-B): users are
disks on the floor plane, each occupying an arc of the target's
360-degree view; arc intersections form static occlusion graphs, whose
temporal sequence is the dynamic occlusion graph (DOG, Definition 4).
One batched converter and one visibility kernel serve every caller
(serving micro-batches, streamed steps and offline DOGs alike); the
dense per-target references live in ``tests/oracles.py``.
"""

from .arcs import (
    Arc,
    angular_separation,
    arc_of_user,
    arcs_intersect,
)
from .batched import BatchedOcclusionConverter, RoomGraphs
from .dog import DynamicOcclusionGraph, structural_delta
from .occlusion import DEFAULT_BODY_RADIUS, StaticOcclusionGraph
from .space import Room, pairwise_distances, project_to_floor, relative_angles
from .visibility import (
    forced_presence_mask,
    physical_cover,
    resolve_episode_visibility,
    resolve_rooms_visibility,
    resolve_visibility,
)

__all__ = [
    "Arc",
    "angular_separation",
    "arc_of_user",
    "arcs_intersect",
    "BatchedOcclusionConverter",
    "RoomGraphs",
    "DynamicOcclusionGraph",
    "structural_delta",
    "StaticOcclusionGraph",
    "DEFAULT_BODY_RADIUS",
    "Room",
    "project_to_floor",
    "pairwise_distances",
    "relative_angles",
    "forced_presence_mask",
    "resolve_visibility",
    "resolve_episode_visibility",
    "resolve_rooms_visibility",
    "physical_cover",
]
