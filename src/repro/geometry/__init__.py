"""``repro.geometry`` — spatial substrate for social XR occlusion.

Implements the paper's occlusion-graph converter (Sec. III-B): users are
disks on the floor plane, each occupying an arc of the target's
360-degree view; arc intersections form static occlusion graphs, whose
temporal sequence is the dynamic occlusion graph (DOG, Definition 4).
"""

from .arcs import (
    Arc,
    angular_separation,
    arc_intersection_matrix,
    arc_of_user,
    arcs_intersect,
)
from .batched import BatchedOcclusionConverter, MultiTargetGraphs, RoomGraphs
from .dog import DynamicOcclusionGraph, structural_delta
from .occlusion import (
    DEFAULT_BODY_RADIUS,
    OcclusionGraphConverter,
    StaticOcclusionGraph,
)
from .space import Room, pairwise_distances, project_to_floor, relative_angles
from .visibility import (
    forced_presence_mask,
    occlusion_rate,
    physical_cover,
    physically_blocked_mask,
    resolve_episode_visibility,
    resolve_rooms_visibility,
    resolve_visibility,
    resolve_visibility_with_occlusion,
)

__all__ = [
    "Arc",
    "angular_separation",
    "arc_of_user",
    "arcs_intersect",
    "arc_intersection_matrix",
    "BatchedOcclusionConverter",
    "MultiTargetGraphs",
    "RoomGraphs",
    "DynamicOcclusionGraph",
    "structural_delta",
    "OcclusionGraphConverter",
    "StaticOcclusionGraph",
    "DEFAULT_BODY_RADIUS",
    "Room",
    "project_to_floor",
    "pairwise_distances",
    "relative_angles",
    "forced_presence_mask",
    "resolve_visibility",
    "resolve_visibility_with_occlusion",
    "resolve_episode_visibility",
    "resolve_rooms_visibility",
    "physical_cover",
    "physically_blocked_mask",
    "occlusion_rate",
]
