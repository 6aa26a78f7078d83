"""``repro.serving`` — the online session-serving engine.

Everything upstream of this package evaluates AFTER offline: a full
trajectory in, an episode result out.  ``repro.serving`` is the live
counterpart (see docs/SERVING.md):

* :class:`RoomSession` — one room advancing frame by frame, carrying
  the recommender's recurrent state, with mid-stream
  suspend/resume and roster churn (:class:`RosterChange` — join/leave,
  device handoff, merge/split seeds).  Bit-identical per step to
  :func:`~repro.core.evaluation.evaluate_episode`.
* :class:`SessionEngine` — many concurrent rooms, cross-room
  micro-batched geometry
  (:meth:`~repro.geometry.batched.BatchedOcclusionConverter.convert_rooms`),
  deterministic admission control that sheds
  or degrades steps under overload, and queue-ordered roster mutation
  (:meth:`~repro.serving.engine.SessionEngine.churn_session`,
  ``merge_sessions``, ``split_session``).
* :class:`ReplayDriver` — replays recorded trajectories as a live
  multi-room workload (the serving bench's traffic generator), and
  executes declarative :class:`~repro.serving.workload.WorkloadPlan`
  schedules (:meth:`~repro.serving.replay.ReplayDriver.run_plan`).
* :class:`Fleet` — a consistent-hash router over N worker processes,
  each running its own engine, with per-shard admission control,
  shard-tagged obs merging, live session migration
  (:meth:`~repro.serving.fleet.Fleet.migrate`) and cross-shard room
  merge/split.
* :mod:`repro.serving.workload` — the declarative traffic DSL: specs
  (arrival processes, churn, lifecycle) validated into
  :class:`~repro.serving.workload.WorkloadSpec` and lowered by a seeded
  :class:`~repro.serving.workload.WorkloadGenerator` into deterministic
  event schedules (see docs/WORKLOADS.md).
"""

from .engine import PendingStep, SessionEngine, StepTicket
from .fleet import Fleet, FleetError, FleetStep, HashRing, ShardFailure
from .replay import PlanOutcome, ReplayDriver
from .session import (
    GreedyMWISFallback,
    RoomSession,
    RosterChange,
    SessionMerge,
    SessionSnapshot,
    SessionSplit,
    SessionStep,
    stream_episode,
)
from .transport import ChannelClosed, PipeChannel, channel_pair
from .workload import (
    CANNED_SPECS,
    ScenarioRun,
    WorkloadEvent,
    WorkloadGenerator,
    WorkloadPlan,
    WorkloadSpec,
    WorkloadSpecError,
    canned_spec,
    run_scenario,
)

__all__ = [
    "RoomSession",
    "SessionStep",
    "SessionSnapshot",
    "RosterChange",
    "SessionMerge",
    "SessionSplit",
    "GreedyMWISFallback",
    "stream_episode",
    "SessionEngine",
    "StepTicket",
    "PendingStep",
    "ReplayDriver",
    "PlanOutcome",
    "Fleet",
    "FleetStep",
    "FleetError",
    "ShardFailure",
    "HashRing",
    "PipeChannel",
    "ChannelClosed",
    "channel_pair",
    "WorkloadSpec",
    "WorkloadSpecError",
    "WorkloadEvent",
    "WorkloadGenerator",
    "WorkloadPlan",
    "CANNED_SPECS",
    "canned_spec",
    "ScenarioRun",
    "run_scenario",
]
