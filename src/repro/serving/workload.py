"""Declarative serving workloads: a traffic DSL lowered to schedules.

A *workload spec* is a plain dict (usually loaded from JSON) describing
the traffic a serving deployment should face: an **arrival process**
(Poisson, a diurnal curve, a flash-crowd burst) opening rooms over a
shared *universe* of users, per-user **churn** (join/leave mid-episode,
VR<->MR device handoffs), and **room lifecycle** (scheduled merges and
splits, bounded room lifespans).  :meth:`WorkloadSpec.from_dict`
validates it strictly — unknown fields, negative rates and overlapping
structural events are rejected, so a typo'd spec fails loudly instead
of silently simulating the wrong thing.

:class:`WorkloadGenerator` lowers a spec into a deterministic
:class:`WorkloadPlan`: every random decision draws from one
``np.random.default_rng(seed)`` stream over canonically ordered
candidates, so the same spec + seed produces the same event schedule on
any host — :meth:`WorkloadPlan.schedule_hash` pins that byte-for-byte.
Every event is **self-contained** (full rosters in the payload), which
is what lets :meth:`~repro.serving.ReplayDriver.run_plan` execute a
plan against an in-process :class:`~repro.serving.SessionEngine` or a
forked :class:`~repro.serving.Fleet` without re-deriving any
randomness.

All rooms are sub-rosters of one per-spec universe room (see
:meth:`~repro.datasets.base.ConferenceRoom.subset`), so cross-room
operations are well-defined: a merge's utility matrices come from the
universe, not from inventing numbers for user pairs that never shared a
room.

See ``docs/WORKLOADS.md`` for the DSL grammar and scenario catalogue.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from ..core.problem import AfterProblem
from ..datasets import RoomConfig, generate_room
from .session import RosterChange, SessionMerge, SessionSplit

__all__ = ["WorkloadSpecError", "WorkloadSpec", "WorkloadEvent",
           "WorkloadPlan", "WorkloadGenerator", "CANNED_SPECS",
           "canned_spec", "roster_change", "merge_spec", "split_spec",
           "ScenarioRun", "run_scenario", "SCENARIO_BUDGETS"]


class WorkloadSpecError(ValueError):
    """A workload spec failed validation (unknown field, bad value)."""


def _check_keys(mapping: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise WorkloadSpecError(
            f"unknown field(s) {unknown} in {where}; "
            f"allowed: {sorted(allowed)}")


def _rate(mapping: dict, key: str, default: float, where: str) -> float:
    value = float(mapping.get(key, default))
    if value < 0:
        raise WorkloadSpecError(f"{where}.{key} must be >= 0, "
                                f"got {value}")
    return value


_ARRIVAL_FIELDS = {
    "poisson": {"kind", "rate"},
    "diurnal": {"kind", "base_rate", "peak_rate", "period"},
    "flash_crowd": {"kind", "base_rate", "burst_rate", "burst_start",
                    "burst_ticks"},
}

_TOP_FIELDS = {"name", "seed", "ticks", "dataset", "universe_users",
               "room_users", "rooms_at_start", "max_rooms", "beta",
               "max_render", "arrival", "churn", "lifecycle", "slo"}

_CHURN_FIELDS = {"join_rate", "leave_rate", "handoff_rate"}

_LIFECYCLE_FIELDS = {"merge_at", "split_at", "close_after"}


@dataclass(frozen=True)
class WorkloadSpec:
    """One validated workload description (construct via
    :meth:`from_dict`; fields mirror the DSL one-to-one)."""

    name: str
    seed: int
    ticks: int
    dataset: str
    universe_users: int
    room_users: tuple
    rooms_at_start: int
    max_rooms: int
    beta: float
    max_render: int
    arrival: dict = field(default_factory=dict)
    churn: dict = field(default_factory=dict)
    lifecycle: dict = field(default_factory=dict)
    slo: tuple = ()

    @classmethod
    def from_dict(cls, raw: dict) -> "WorkloadSpec":
        """Validate a raw spec dict into a :class:`WorkloadSpec`.

        Rejects unknown fields at every level, negative rates and
        counts, malformed roster bounds, and overlapping structural
        events (two merges/splits scheduled for the same tick — the
        schedule allows at most one structural mutation per tick so it
        stays canonical).
        """
        if not isinstance(raw, dict):
            raise WorkloadSpecError(
                f"spec must be a dict, got {type(raw).__name__}")
        _check_keys(raw, _TOP_FIELDS, "spec")
        name = str(raw.get("name", "workload"))
        seed = int(raw.get("seed", 0))
        ticks = int(raw.get("ticks", 0))
        if ticks < 1:
            raise WorkloadSpecError("ticks must be >= 1")
        dataset = str(raw.get("dataset", "timik"))
        universe_users = int(raw.get("universe_users", 0))
        room_users = tuple(int(v) for v in raw.get("room_users", (4, 8)))
        if len(room_users) != 2 or not 2 <= room_users[0] <= room_users[1]:
            raise WorkloadSpecError(
                "room_users must be [min, max] with 2 <= min <= max")
        if universe_users < room_users[1]:
            raise WorkloadSpecError(
                f"universe_users ({universe_users}) must cover the "
                f"largest room ({room_users[1]})")
        rooms_at_start = int(raw.get("rooms_at_start", 1))
        if rooms_at_start < 0:
            raise WorkloadSpecError("rooms_at_start must be >= 0")
        max_rooms = int(raw.get("max_rooms", 8))
        if max_rooms < 1:
            raise WorkloadSpecError("max_rooms must be >= 1")
        beta = float(raw.get("beta", 0.5))
        if not 0.0 <= beta <= 1.0:
            raise WorkloadSpecError("beta must be in [0, 1]")
        max_render = int(raw.get("max_render", 10))
        if max_render < 1:
            raise WorkloadSpecError("max_render must be >= 1")

        arrival = dict(raw.get("arrival", {"kind": "poisson",
                                           "rate": 0.0}))
        kind = arrival.get("kind")
        if kind not in _ARRIVAL_FIELDS:
            raise WorkloadSpecError(
                f"unknown arrival kind {kind!r}; "
                f"one of {sorted(_ARRIVAL_FIELDS)}")
        _check_keys(arrival, _ARRIVAL_FIELDS[kind], f"arrival[{kind}]")
        if kind == "poisson":
            arrival["rate"] = _rate(arrival, "rate", 0.0, "arrival")
        elif kind == "diurnal":
            arrival["base_rate"] = _rate(arrival, "base_rate", 0.0,
                                         "arrival")
            arrival["peak_rate"] = _rate(arrival, "peak_rate", 0.0,
                                         "arrival")
            arrival["period"] = float(arrival.get("period", ticks))
            if arrival["period"] <= 0:
                raise WorkloadSpecError("arrival.period must be > 0")
        else:
            arrival["base_rate"] = _rate(arrival, "base_rate", 0.0,
                                         "arrival")
            arrival["burst_rate"] = _rate(arrival, "burst_rate", 0.0,
                                          "arrival")
            arrival["burst_start"] = int(arrival.get("burst_start", 0))
            arrival["burst_ticks"] = int(arrival.get("burst_ticks", 1))
            if arrival["burst_start"] < 0 or arrival["burst_ticks"] < 1:
                raise WorkloadSpecError(
                    "burst_start must be >= 0 and burst_ticks >= 1")

        churn = dict(raw.get("churn", {}))
        _check_keys(churn, _CHURN_FIELDS, "churn")
        for key in _CHURN_FIELDS:
            churn[key] = _rate(churn, key, 0.0, "churn")

        lifecycle = dict(raw.get("lifecycle", {}))
        _check_keys(lifecycle, _LIFECYCLE_FIELDS, "lifecycle")
        merge_at = tuple(int(t) for t in lifecycle.get("merge_at", ()))
        split_at = tuple(int(t) for t in lifecycle.get("split_at", ()))
        structural = list(merge_at) + list(split_at)
        if len(structural) != len(set(structural)):
            raise WorkloadSpecError(
                "overlapping structural events: each tick may schedule "
                "at most one merge or split")
        if any(t < 0 or t >= ticks for t in structural):
            raise WorkloadSpecError(
                "merge_at/split_at ticks must lie in [0, ticks)")
        lifecycle["merge_at"] = merge_at
        lifecycle["split_at"] = split_at
        close_after = lifecycle.get("close_after")
        if close_after is not None:
            close_after = int(close_after)
            if close_after < 1:
                raise WorkloadSpecError("close_after must be >= 1")
        lifecycle["close_after"] = close_after

        slo = tuple(str(rule) for rule in raw.get("slo", ()))
        return cls(name=name, seed=seed, ticks=ticks, dataset=dataset,
                   universe_users=universe_users, room_users=room_users,
                   rooms_at_start=rooms_at_start, max_rooms=max_rooms,
                   beta=beta, max_render=max_render, arrival=arrival,
                   churn=churn, lifecycle=lifecycle, slo=slo)

    def arrival_rate(self, tick: int) -> float:
        """Expected room-opens at ``tick`` under the arrival process."""
        kind = self.arrival["kind"]
        if kind == "poisson":
            return self.arrival["rate"]
        if kind == "diurnal":
            base = self.arrival["base_rate"]
            peak = self.arrival["peak_rate"]
            phase = 2.0 * np.pi * tick / self.arrival["period"]
            return base + (peak - base) * 0.5 * (1.0 - np.cos(phase))
        start = self.arrival["burst_start"]
        if start <= tick < start + self.arrival["burst_ticks"]:
            return self.arrival["burst_rate"]
        return self.arrival["base_rate"]

    def to_document(self) -> dict:
        """JSON-ready canonical form (tuples become sorted-key lists)."""
        return {"name": self.name, "seed": self.seed, "ticks": self.ticks,
                "dataset": self.dataset,
                "universe_users": self.universe_users,
                "room_users": list(self.room_users),
                "rooms_at_start": self.rooms_at_start,
                "max_rooms": self.max_rooms, "beta": self.beta,
                "max_render": self.max_render,
                "arrival": dict(self.arrival),
                "churn": dict(self.churn),
                "lifecycle": {"merge_at": list(self.lifecycle.get(
                                  "merge_at", ())),
                              "split_at": list(self.lifecycle.get(
                                  "split_at", ())),
                              "close_after": self.lifecycle.get(
                                  "close_after")},
                "slo": list(self.slo)}


@dataclass(frozen=True)
class WorkloadEvent:
    """One scheduled lifecycle event, self-contained via its payload.

    ``kind`` is one of ``open``, ``close``, ``join``, ``leave``,
    ``handoff``, ``merge``, ``split``.  Payloads carry full universe
    rosters (not deltas), so an executor never reconstructs state from
    event history alone and the schedule hash covers the exact rosters.
    """

    tick: int
    kind: str
    payload: dict

    def to_document(self) -> dict:
        """JSON-ready form with deterministic key order."""
        return {"tick": self.tick, "kind": self.kind,
                "payload": {key: self.payload[key]
                            for key in sorted(self.payload)}}


@dataclass
class WorkloadPlan:
    """A lowered workload: the universe room plus its event schedule."""

    spec: WorkloadSpec
    universe: object
    events: list

    def events_at(self, tick: int) -> list:
        """The events scheduled for ``tick``, in application order."""
        return [event for event in self.events if event.tick == tick]

    def schedule_hash(self) -> str:
        """BLAKE2b digest of the canonical spec + event schedule.

        Two plans hash equal iff they would drive a serving stack
        through the same sequence of roster states — the golden-file
        anchor for determinism tests (``tests/serving/test_workload.py``).
        """
        document = {"spec": self.spec.to_document(),
                    "events": [event.to_document()
                               for event in self.events]}
        payload = json.dumps(document, sort_keys=True,
                             separators=(",", ":")).encode()
        return hashlib.blake2b(payload, digest_size=16).hexdigest()

    def to_document(self) -> dict:
        """JSON-ready plan summary (spec, events, hash)."""
        return {"spec": self.spec.to_document(),
                "events": [event.to_document() for event in self.events],
                "schedule_hash": self.schedule_hash()}


class _MirrorRoom:
    """Generator-side mirror of one live room's roster."""

    def __init__(self, name: str, users: list, target: int,
                 close_at: int | None):
        self.name = name
        self.users = users          # universe indices, in roster order
        self.target = target        # universe index, never churned out
        self.close_at = close_at


class WorkloadGenerator:
    """Lowers a :class:`WorkloadSpec` into a :class:`WorkloadPlan`.

    All randomness flows from one ``default_rng(spec.seed)`` stream and
    every choice ranges over canonically sorted candidates, so the
    schedule is a pure function of the spec.  The universe room is
    generated from the same seed (``generate_room`` is deterministic in
    its arguments), making the whole plan reproducible across hosts.
    """

    def __init__(self, spec: WorkloadSpec):
        self.spec = spec
        self.universe = generate_room(
            spec.dataset,
            RoomConfig(num_users=spec.universe_users,
                       num_steps=spec.ticks),
            seed=spec.seed)

    # ------------------------------------------------------------------
    def schedule(self) -> WorkloadPlan:
        """Run the spec's stochastic processes into an event list."""
        spec = self.spec
        rng = np.random.default_rng(spec.seed)
        pool = list(range(spec.universe_users))   # free universe users
        rooms: dict[str, _MirrorRoom] = {}
        events: list[WorkloadEvent] = []
        opened = 0

        def open_room(tick: int) -> None:
            nonlocal opened
            low, high = spec.room_users
            size = int(rng.integers(low, high + 1))
            if len(pool) < size or len(rooms) >= spec.max_rooms:
                return
            picks = sorted(int(u) for u in rng.choice(
                len(pool), size=size, replace=False))
            users = [pool[i] for i in picks]
            for user in users:
                pool.remove(user)
            close_after = spec.lifecycle.get("close_after")
            room = _MirrorRoom(
                name=f"{spec.name}/r{opened}", users=users,
                target=users[0],
                close_at=None if close_after is None
                else tick + close_after)
            opened += 1
            rooms[room.name] = room
            events.append(WorkloadEvent(tick, "open", {
                "room": room.name, "users": list(users),
                "target": room.target}))

        for _ in range(spec.rooms_at_start):
            open_room(0)

        for tick in range(spec.ticks):
            # Scheduled closes (expired lifespans) release users.
            for name in sorted(rooms):
                room = rooms[name]
                if room.close_at is not None and room.close_at <= tick:
                    events.append(WorkloadEvent(tick, "close",
                                                {"room": name}))
                    pool.extend(room.users)
                    pool.sort()
                    del rooms[name]

            # Structural events: at most one per tick by validation.
            if tick in spec.lifecycle["merge_at"] and len(rooms) >= 2:
                self._merge(tick, rng, rooms, events)
            elif tick in spec.lifecycle["split_at"]:
                self._split(tick, rng, rooms, events)

            # Arrivals.
            for _ in range(int(rng.poisson(spec.arrival_rate(tick)))):
                open_room(tick)

            # Per-user churn, Poisson per process.
            self._churn(tick, rng, rooms, pool, events)

        return WorkloadPlan(spec=spec, universe=self.universe,
                            events=events)

    # ------------------------------------------------------------------
    def _merge(self, tick: int, rng, rooms: dict, events: list) -> None:
        """Merge the two smallest rooms (secondary into primary)."""
        ranked = sorted(rooms.values(),
                        key=lambda room: (len(room.users), room.name))
        secondary, primary = ranked[0], ranked[1]
        merged = primary.users + secondary.users
        events.append(WorkloadEvent(tick, "merge", {
            "primary": primary.name, "secondary": secondary.name,
            "users": list(merged)}))
        primary.users = merged
        del rooms[secondary.name]

    def _split(self, tick: int, rng, rooms: dict, events: list) -> None:
        """Split the largest splittable room roughly in half."""
        low = self.spec.room_users[0]
        ranked = sorted(rooms.values(),
                        key=lambda room: (-len(room.users), room.name))
        for room in ranked:
            movable = [u for u in room.users if u != room.target]
            departing = movable[-(len(room.users) // 2):]
            retained = [u for u in room.users if u not in departing]
            if len(departing) >= max(low, 2) and len(retained) >= low:
                spawn = _MirrorRoom(name=f"{room.name}+s{tick}",
                                    users=departing,
                                    target=departing[0], close_at=None)
                events.append(WorkloadEvent(tick, "split", {
                    "room": room.name, "retained": list(retained),
                    "spawn": spawn.name, "departed": list(departing),
                    "spawn_target": spawn.target}))
                room.users = retained
                rooms[spawn.name] = spawn
                return

    def _churn(self, tick: int, rng, rooms: dict, pool: list,
               events: list) -> None:
        """Draw this tick's joins, leaves and handoffs."""
        spec = self.spec
        low, high = spec.room_users
        for _ in range(int(rng.poisson(spec.churn["join_rate"]))):
            names = sorted(name for name, room in rooms.items()
                           if len(room.users) < high)
            if not names or not pool:
                continue
            room = rooms[names[int(rng.integers(len(names)))]]
            user = pool.pop(int(rng.integers(len(pool))))
            room.users.append(user)
            events.append(WorkloadEvent(tick, "join", {
                "room": room.name, "user": user,
                "users": list(room.users)}))
        for _ in range(int(rng.poisson(spec.churn["leave_rate"]))):
            names = sorted(name for name, room in rooms.items()
                           if len(room.users) > low)
            if not names:
                continue
            room = rooms[names[int(rng.integers(len(names)))]]
            movable = [u for u in room.users if u != room.target]
            user = movable[int(rng.integers(len(movable)))]
            room.users.remove(user)
            pool.append(user)
            pool.sort()
            events.append(WorkloadEvent(tick, "leave", {
                "room": room.name, "user": user,
                "users": list(room.users)}))
        for _ in range(int(rng.poisson(spec.churn["handoff_rate"]))):
            names = sorted(rooms)
            if not names:
                continue
            room = rooms[names[int(rng.integers(len(names)))]]
            user = room.users[int(rng.integers(len(room.users)))]
            events.append(WorkloadEvent(tick, "handoff", {
                "room": room.name, "user": user}))


# ----------------------------------------------------------------------
# Lowering roster states into session-layer change objects
# ----------------------------------------------------------------------
def _keep_map(new_users: list, old_users: list) -> np.ndarray:
    """Map each new-roster slot to its old-roster index (-1 = joiner)."""
    position = {user: index for index, user in enumerate(old_users)}
    return np.array([position.get(user, -1) for user in new_users],
                    dtype=np.int64)


def _room_problem(universe, users: list, target: int, *, name: str,
                  beta: float, max_render: int,
                  interfaces: np.ndarray) -> AfterProblem:
    """An :class:`AfterProblem` over a universe sub-roster."""
    roster = np.asarray(users, dtype=np.int64)
    return AfterProblem(
        room=universe.subset(roster, name=name,
                             interfaces_mr=interfaces[roster]),
        target=users.index(target), beta=beta, max_render=max_render)


def roster_change(universe, kind: str, old_users: list, new_users: list,
                  target: int, *, name: str, beta: float,
                  max_render: int,
                  interfaces: np.ndarray) -> RosterChange:
    """Lower an old-roster -> new-roster transition for one room.

    ``old_users``/``new_users`` are universe indices in roster order and
    ``target`` the (surviving) target's universe index; ``interfaces``
    is the current universe-wide device mask, so accumulated handoffs
    persist across later changes.
    """
    return RosterChange(
        kind=kind,
        problem=_room_problem(universe, new_users, target, name=name,
                              beta=beta, max_render=max_render,
                              interfaces=interfaces),
        keep=_keep_map(new_users, old_users))


def merge_spec(universe, primary_users: list, secondary_users: list,
               merged_users: list, target: int, *, name: str,
               beta: float, max_render: int,
               interfaces: np.ndarray) -> SessionMerge:
    """Lower a merge event into the session layer's
    :class:`~repro.serving.session.SessionMerge`."""
    return SessionMerge(
        problem=_room_problem(universe, merged_users, target, name=name,
                              beta=beta, max_render=max_render,
                              interfaces=interfaces),
        keep=_keep_map(merged_users, primary_users),
        keep_secondary=_keep_map(merged_users, secondary_users))


def split_spec(universe, old_users: list, retained_users: list,
               departed_users: list, target: int, spawn_target: int, *,
               name: str, spawn_name: str, spawn_id: str, beta: float,
               max_render: int, interfaces: np.ndarray) -> SessionSplit:
    """Lower a split event into the session layer's
    :class:`~repro.serving.session.SessionSplit`."""
    return SessionSplit(
        retain=roster_change(universe, "split", old_users,
                             retained_users, target, name=name,
                             beta=beta, max_render=max_render,
                             interfaces=interfaces),
        problem=_room_problem(universe, departed_users, spawn_target,
                              name=spawn_name, beta=beta,
                              max_render=max_render,
                              interfaces=interfaces),
        keep=_keep_map(departed_users, old_users),
        session_id=spawn_id)


# ----------------------------------------------------------------------
# Scenario catalogue
# ----------------------------------------------------------------------
CANNED_SPECS: dict[str, dict] = {
    "diurnal": {
        "name": "diurnal", "seed": 7, "ticks": 40, "dataset": "timik",
        "universe_users": 48, "room_users": [5, 8],
        "rooms_at_start": 2, "max_rooms": 5,
        "arrival": {"kind": "diurnal", "base_rate": 0.05,
                    "peak_rate": 0.6, "period": 40},
        "churn": {"join_rate": 0.2, "leave_rate": 0.2},
        "lifecycle": {"close_after": 25},
        "slo": ["p99(serving.step_latency_s) < 200ms over 5s",
                "mean(serving.shed_rate) < 0.01 over 10s"],
    },
    "flash_crowd": {
        "name": "flash_crowd", "seed": 11, "ticks": 30,
        "dataset": "smm", "universe_users": 64, "room_users": [5, 8],
        "rooms_at_start": 1, "max_rooms": 7,
        "arrival": {"kind": "flash_crowd", "base_rate": 0.05,
                    "burst_rate": 3.0, "burst_start": 10,
                    "burst_ticks": 4},
        "churn": {"join_rate": 0.3},
        "slo": ["p99(serving.step_latency_s) < 500ms over 5s",
                "mean(serving.shed_rate) < 0.25 over 10s"],
    },
    "merge_split": {
        "name": "merge_split", "seed": 3, "ticks": 24,
        "dataset": "hubs", "universe_users": 40, "room_users": [4, 6],
        "rooms_at_start": 3, "max_rooms": 6,
        "arrival": {"kind": "poisson", "rate": 0.1},
        "churn": {"join_rate": 0.1, "leave_rate": 0.1},
        "lifecycle": {"merge_at": [8, 16], "split_at": [12, 20]},
        "slo": ["p99(serving.step_latency_s) < 500ms over 5s"],
    },
    "device_handoff": {
        "name": "device_handoff", "seed": 5, "ticks": 20,
        "dataset": "timik", "universe_users": 32, "room_users": [5, 8],
        "rooms_at_start": 2, "max_rooms": 4,
        "arrival": {"kind": "poisson", "rate": 0.05},
        "churn": {"handoff_rate": 1.0},
        "slo": ["p99(serving.step_latency_s) < 500ms over 5s"],
    },
}


def canned_spec(name: str, **overrides) -> WorkloadSpec:
    """A validated spec from the catalogue, with optional overrides.

    Overrides replace top-level fields (e.g. ``ticks=6`` for a smoke
    run); the merged dict goes through full validation.  Shrinking
    ``ticks`` drops the catalogue's structural events that no longer
    fit the horizon instead of failing validation.
    """
    if name not in CANNED_SPECS:
        raise KeyError(f"unknown scenario {name!r}; "
                       f"available: {sorted(CANNED_SPECS)}")
    raw = json.loads(json.dumps(CANNED_SPECS[name]))
    raw.update(overrides)
    lifecycle = raw.get("lifecycle")
    if lifecycle and "ticks" in overrides:
        for key in ("merge_at", "split_at"):
            if key in lifecycle:
                lifecycle[key] = [t for t in lifecycle[key]
                                  if t < raw["ticks"]]
    return WorkloadSpec.from_dict(raw)


# ----------------------------------------------------------------------
# Scenario runner (the serving bench and ``python -m repro.serving``)
# ----------------------------------------------------------------------
#: Admission budgets of the stack a scenario runs against (fleet-wide
#: for a :class:`~repro.serving.Fleet`).
SCENARIO_BUDGETS = {"max_batch": 16, "max_queue": 64, "degrade_at": 48}


@dataclass
class ScenarioRun:
    """What :func:`run_scenario` produced for one spec.

    ``outcome`` is the :class:`~repro.serving.PlanOutcome`, ``shards``
    the per-tick telemetry (``{shard: ShardTelemetry}``) and ``report``
    its :class:`~repro.obs.SloBatchReport` replay through the spec's
    SLO rules.
    """

    plan: WorkloadPlan
    outcome: object
    shards: dict
    report: object


def run_scenario(spec: WorkloadSpec, fleet: int) -> ScenarioRun:
    """Drive one spec end to end with per-tick telemetry and SLO replay.

    Lowers ``spec`` to its plan, opens a ``fleet``-worker
    :class:`~repro.serving.Fleet` (an in-process
    :class:`~repro.serving.SessionEngine` at ``fleet=0``) under
    :data:`SCENARIO_BUDGETS`, runs the plan through
    :meth:`~repro.serving.ReplayDriver.run_plan` with a
    :class:`~repro.obs.TelemetrySampler` sampled once per tick, and
    replays the recorded series through the spec's SLO rules.
    """
    from ..models.baselines import NearestRecommender
    from ..obs import PERF, TelemetrySampler, evaluate_recorded
    from .engine import SessionEngine
    from .fleet import Fleet
    from .replay import ReplayDriver

    plan = WorkloadGenerator(spec).schedule()
    # Enabled before the fleet fork so workers inherit the flag and the
    # latency/batch histograms feed the sampler's rate series.
    PERF.reset().enable()
    try:
        stack = Fleet(fleet, **SCENARIO_BUDGETS) if fleet > 0 \
            else SessionEngine(**SCENARIO_BUDGETS)
        with stack:
            sampler = TelemetrySampler(stack)
            outcome = ReplayDriver(stack).run_plan(
                plan, NearestRecommender(), sampler=sampler)
    finally:
        PERF.disable()
    report = evaluate_recorded(list(spec.slo), sampler.shards,
                               scenario=spec.name)
    return ScenarioRun(plan=plan, outcome=outcome, shards=sampler.shards,
                       report=report)
