"""Workload DSL goldens: validation, determinism, execution parity.

Three layers, mirroring the contract in docs/WORKLOADS.md:

* **Spec validation** — a typo'd spec must fail loudly.  Unknown fields
  at every nesting level, negative rates, malformed roster bounds and
  overlapping structural events all raise
  :class:`~repro.serving.WorkloadSpecError`.
* **Schedule determinism** — lowering is a pure function of the spec:
  independent generators agree, and the catalogue scenarios hash to
  pinned goldens (the cross-host anchor — if a numpy upgrade ever
  changes ``default_rng`` stream semantics, these fail first).
* **Execution invariance** — one plan drives identical serving outcomes
  regardless of deployment: in-process engine vs forked fleet, and
  live SLO monitoring vs recorded replay.
"""

import multiprocessing

import numpy as np
import pytest

from repro.models.baselines import NearestRecommender
from repro.obs import PERF, SloMonitor, TelemetrySampler, evaluate_recorded
from repro.serving import (
    CANNED_SPECS,
    Fleet,
    ReplayDriver,
    SessionEngine,
    WorkloadGenerator,
    WorkloadSpec,
    WorkloadSpecError,
    canned_spec,
)

from .test_stream_parity import assert_episodes_identical

fork_available = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable")

#: Schedule hashes for every catalogue scenario at ``ticks=10``.  These
#: pin the exact event stream (full rosters included) byte-for-byte;
#: regenerate with ``WorkloadGenerator(canned_spec(name,
#: ticks=10)).schedule().schedule_hash()`` only after an *intentional*
#: DSL change, and say so in the commit message.
GOLDEN_HASHES = {
    "device_handoff": "a603309cf0c5ddfffdd1702940acdec2",
    "diurnal": "326d1af4c0bc1cd41cd14b779160de03",
    "flash_crowd": "83064aaf1ad23cdec4a85ef82a19c411",
    "merge_split": "e2948ba9e4c38faaa7fb03886dd453cd",
}


def _base_spec(**overrides) -> dict:
    raw = {"name": "t", "seed": 1, "ticks": 8, "dataset": "timik",
           "universe_users": 16, "room_users": [4, 6],
           "rooms_at_start": 1, "max_rooms": 3,
           "arrival": {"kind": "poisson", "rate": 0.2}}
    raw.update(overrides)
    return raw


class TestSpecValidation:
    def test_roundtrip_of_a_valid_spec(self):
        spec = WorkloadSpec.from_dict(_base_spec())
        assert spec.room_users == (4, 6)
        assert spec.arrival["rate"] == 0.2
        # Canonical document form survives re-validation unchanged.
        again = WorkloadSpec.from_dict(spec.to_document())
        assert again == spec

    @pytest.mark.parametrize("mutate", [
        {"bogus_field": 1},
        {"arrival": {"kind": "poisson", "rate": 1.0, "typo": 2}},
        {"arrival": {"kind": "diurnal", "base_rate": 0.1, "rate": 1.0}},
        {"churn": {"join_rte": 0.5}},
        {"lifecycle": {"merge_on": [2]}},
    ], ids=["top-level", "arrival-extra", "arrival-wrong-kind-field",
            "churn", "lifecycle"])
    def test_unknown_fields_rejected(self, mutate):
        with pytest.raises(WorkloadSpecError, match="unknown field"):
            WorkloadSpec.from_dict(_base_spec(**mutate))

    @pytest.mark.parametrize("mutate,match", [
        ({"arrival": {"kind": "poisson", "rate": -1.0}}, "must be >= 0"),
        ({"churn": {"leave_rate": -0.1}}, "must be >= 0"),
        ({"arrival": {"kind": "diurnal", "peak_rate": -2.0}},
         "must be >= 0"),
        ({"arrival": {"kind": "diurnal", "base_rate": 0.1, "period": 0}},
         "period must be > 0"),
        ({"arrival": {"kind": "flash_crowd", "burst_rate": 1.0,
                      "burst_ticks": 0}}, "burst_ticks"),
    ], ids=["poisson-rate", "churn-rate", "diurnal-rate", "period",
            "burst-ticks"])
    def test_negative_rates_rejected(self, mutate, match):
        with pytest.raises(WorkloadSpecError, match=match):
            WorkloadSpec.from_dict(_base_spec(**mutate))

    @pytest.mark.parametrize("lifecycle", [
        {"merge_at": [3, 3]},
        {"split_at": [5, 5]},
        {"merge_at": [2, 4], "split_at": [4]},
    ], ids=["merge-merge", "split-split", "merge-split"])
    def test_overlapping_structural_events_rejected(self, lifecycle):
        with pytest.raises(WorkloadSpecError, match="overlapping"):
            WorkloadSpec.from_dict(_base_spec(lifecycle=lifecycle))

    def test_structural_events_must_fit_horizon(self):
        with pytest.raises(WorkloadSpecError, match=r"\[0, ticks\)"):
            WorkloadSpec.from_dict(
                _base_spec(lifecycle={"merge_at": [8]}))

    @pytest.mark.parametrize("mutate,match", [
        ({"ticks": 0}, "ticks"),
        ({"room_users": [1, 6]}, "room_users"),
        ({"room_users": [6, 4]}, "room_users"),
        ({"room_users": [4]}, "room_users"),
        ({"universe_users": 5}, "cover the largest room"),
        ({"beta": 1.5}, "beta"),
        ({"max_render": 0}, "max_render"),
        ({"max_rooms": 0}, "max_rooms"),
        ({"rooms_at_start": -1}, "rooms_at_start"),
        ({"arrival": {"kind": "lunar"}}, "arrival kind"),
        ({"lifecycle": {"close_after": 0}}, "close_after"),
    ], ids=["ticks", "room-min", "room-order", "room-arity",
            "universe", "beta", "max-render", "max-rooms",
            "rooms-at-start", "arrival-kind", "close-after"])
    def test_bad_values_rejected(self, mutate, match):
        with pytest.raises(WorkloadSpecError, match=match):
            WorkloadSpec.from_dict(_base_spec(**mutate))

    def test_non_dict_spec_rejected(self):
        with pytest.raises(WorkloadSpecError, match="must be a dict"):
            WorkloadSpec.from_dict(["not", "a", "spec"])

    def test_unknown_scenario_name(self):
        with pytest.raises(KeyError, match="available"):
            canned_spec("rush_hour")

    def test_canned_override_clips_structural_events(self):
        # merge_split schedules merges/splits up to tick 20; shrinking
        # the horizon must drop the ones that no longer fit, not fail.
        spec = canned_spec("merge_split", ticks=10)
        assert spec.lifecycle["merge_at"] == (8,)
        assert spec.lifecycle["split_at"] == ()


class TestScheduleDeterminism:
    @pytest.mark.parametrize("name", sorted(CANNED_SPECS))
    def test_independent_generators_agree(self, name):
        spec = canned_spec(name, ticks=10)
        first = WorkloadGenerator(spec).schedule()
        second = WorkloadGenerator(spec).schedule()
        assert first.schedule_hash() == second.schedule_hash()
        assert [e.to_document() for e in first.events] \
            == [e.to_document() for e in second.events]

    @pytest.mark.parametrize("name", sorted(GOLDEN_HASHES))
    def test_golden_schedule_hashes(self, name):
        plan = WorkloadGenerator(canned_spec(name, ticks=10)).schedule()
        assert plan.schedule_hash() == GOLDEN_HASHES[name]

    def test_seed_changes_the_schedule(self):
        base = canned_spec("flash_crowd", ticks=10)
        reseeded = canned_spec("flash_crowd", ticks=10, seed=99)
        assert WorkloadGenerator(base).schedule().schedule_hash() \
            != WorkloadGenerator(reseeded).schedule().schedule_hash()

    @pytest.mark.parametrize("name", sorted(CANNED_SPECS))
    def test_events_are_self_contained_and_consistent(self, name):
        """Replaying the mirrors from event payloads alone stays sane.

        Every event carries full rosters, so a mirror built purely from
        payloads must keep rooms disjoint, inside the universe, with
        their target always on the roster — the invariants
        ``run_plan`` relies on without re-checking.
        """
        spec = canned_spec(name, ticks=10)
        plan = WorkloadGenerator(spec).schedule()
        rooms: dict[str, dict] = {}
        for event in plan.events:
            payload = event.payload
            if event.kind == "open":
                rooms[payload["room"]] = {
                    "users": list(payload["users"]),
                    "target": payload["target"]}
            elif event.kind == "close":
                del rooms[payload["room"]]
            elif event.kind in ("join", "leave"):
                rooms[payload["room"]]["users"] = list(payload["users"])
            elif event.kind == "handoff":
                assert payload["user"] \
                    in rooms[payload["room"]]["users"]
            elif event.kind == "merge":
                primary = rooms[payload["primary"]]
                secondary = rooms.pop(payload["secondary"])
                assert payload["users"] \
                    == primary["users"] + secondary["users"]
                primary["users"] = list(payload["users"])
            elif event.kind == "split":
                room = rooms[payload["room"]]
                assert sorted(payload["retained"]
                              + payload["departed"]) \
                    == sorted(room["users"])
                assert room["target"] in payload["retained"]
                room["users"] = list(payload["retained"])
                rooms[payload["spawn"]] = {
                    "users": list(payload["departed"]),
                    "target": payload["spawn_target"]}
            else:
                pytest.fail(f"unknown event kind {event.kind!r}")
            everyone = [u for room in rooms.values()
                        for u in room["users"]]
            assert len(everyone) == len(set(everyone))
            assert all(0 <= u < spec.universe_users for u in everyone)
            for room in rooms.values():
                assert room["target"] in room["users"]
                assert len(room["users"]) >= 2


def _run_on_engine(plan, *, max_queue=256, pump_interval=1):
    with SessionEngine(max_batch=8, max_queue=max_queue) as engine:
        driver = ReplayDriver(engine, pump_interval=pump_interval)
        return driver.run_plan(plan, NearestRecommender())


def _accounting(outcome):
    """The deployment-invariant view of a plan run: every admission
    decision plus every episode's deterministic outputs."""
    tickets = {sid: [(t.t, t.status) for t in tickets]
               for sid, tickets in outcome.tickets.items()}
    return tickets, {sid: outcome.results[sid]
                     for sid in sorted(outcome.results)}


class TestExecutionInvariance:
    def test_plan_runs_merges_and_splits_end_to_end(self):
        plan = WorkloadGenerator(
            canned_spec("merge_split", ticks=14)).schedule()
        kinds = {event.kind for event in plan.events}
        assert {"merge", "split"} <= kinds
        outcome = _run_on_engine(plan)
        spawned = [sid for sid in outcome.results if "+s" in sid]
        assert spawned, "split never spawned a session"
        for result in outcome.results.values():
            assert result.recommendations.ndim == 2

    def test_overload_shed_accounting_is_schedule_determined(self):
        """Flash-crowd overload sheds identically run to run.

        ``pump_interval=4`` lets the burst stack the queue past
        ``max_queue`` so real shedding happens; the shed/degrade
        pattern must still be a pure function of the schedule.
        """
        plan = WorkloadGenerator(
            canned_spec("flash_crowd", ticks=14)).schedule()
        runs = [_run_on_engine(plan, max_queue=12, pump_interval=4)
                for _ in range(2)]
        accounted = [_accounting(run)[0] for run in runs]
        assert accounted[0] == accounted[1]
        statuses = [status for tickets in accounted[0].values()
                    for _, status in tickets]
        assert "shed" in statuses, \
            "overload scenario never shed — queue bound too loose"

    @fork_available
    def test_engine_and_fleet_run_identical_plans(self):
        """One plan, in-process engine vs 2-shard fleet: same episodes.

        Sheds differ by design (the fleet divides its budget per
        shard), so this runs unloaded and compares the per-session
        episode results — the strongest cross-deployment guarantee the
        serving layer makes.
        """
        plan = WorkloadGenerator(
            canned_spec("merge_split", ticks=14)).schedule()
        engine_outcome = _run_on_engine(plan)
        with Fleet(2, max_batch=8, max_queue=256) as fleet:
            fleet_outcome = ReplayDriver(fleet).run_plan(
                plan, NearestRecommender())
        assert sorted(engine_outcome.results) \
            == sorted(fleet_outcome.results)
        for sid in engine_outcome.results:
            assert_episodes_identical(engine_outcome.results[sid],
                                      fleet_outcome.results[sid])

    @fork_available
    def test_fleet_flash_crowd_accounting_is_repeatable(self):
        """Seeded fleet stress: two identical fleets hand out identical
        ticket streams and final episodes under burst load."""
        plan = WorkloadGenerator(
            canned_spec("flash_crowd", ticks=14)).schedule()
        outcomes = []
        for _ in range(2):
            with Fleet(2, max_batch=8, max_queue=32) as fleet:
                outcomes.append(ReplayDriver(fleet).run_plan(
                    plan, NearestRecommender()))
        first_tickets, first_results = _accounting(outcomes[0])
        second_tickets, second_results = _accounting(outcomes[1])
        assert first_tickets == second_tickets
        for sid in first_results:
            assert_episodes_identical(first_results[sid],
                                      second_results[sid])


class _MonitoredSampler(TelemetrySampler):
    """A sampler that also evaluates an SLO monitor at every sample —
    the 'live' half of the live-vs-replay equivalence test."""

    def __init__(self, source, monitor):
        super().__init__(source)
        self.monitor = monitor

    def sample(self, now=None):
        raw = super().sample(now=now)
        marker = len(self.monitor.events.records)
        self.monitor.evaluate(self.shards, now=now)
        for record in self.monitor.events.records[marker:]:
            record["at"] = float(now)
        return raw


def _transitions(records):
    return [(record["type"], record["rule"], record["shard"],
             record["at"]) for record in records
            if record["type"] in ("slo.breach", "slo.recover")]


class TestSloReplayEquivalence:
    def test_live_monitor_matches_recorded_replay(self):
        """Breach/recover transitions agree timestamp-for-timestamp.

        A monitor evaluated live at every tick of a merge/split run
        and :func:`evaluate_recorded` replaying the same telemetry
        afterwards must see identical transition streams — the
        property that makes post-hoc SLO verdicts (benchmarks, CI)
        trustworthy stand-ins for live alerting.  The rule trips on
        room count, so merges (recover) and splits (breach) both fire.
        """
        rules = ["last(serving.open_sessions) < 3 over 2s"]
        plan = WorkloadGenerator(
            canned_spec("merge_split", ticks=14)).schedule()
        live = SloMonitor(rules)
        with SessionEngine(max_batch=8, max_queue=256) as engine:
            sampler = _MonitoredSampler(engine, live)
            ReplayDriver(engine).run_plan(plan, NearestRecommender(),
                                          sampler=sampler)
        report = evaluate_recorded(rules, sampler.shards,
                                   scenario="merge_split")
        assert report.scenario == "merge_split"
        live_transitions = _transitions(live.events.records)
        replayed = _transitions(report.events)
        assert live_transitions == replayed
        kinds = {kind for kind, *_ in live_transitions}
        assert kinds == {"slo.breach", "slo.recover"}, \
            "scenario must exercise both transition directions"

    def test_recorded_replay_can_be_scoped_to_a_scenario_window(self):
        """``start``/``end`` scope a longer recording to one scenario's
        ticks; transitions outside the window don't fire."""
        rules = ["last(serving.open_sessions) < 3 over 2s"]
        plan = WorkloadGenerator(
            canned_spec("merge_split", ticks=14)).schedule()
        with SessionEngine(max_batch=8, max_queue=256) as engine:
            sampler = TelemetrySampler(engine)
            ReplayDriver(engine).run_plan(plan, NearestRecommender(),
                                          sampler=sampler)
        full = evaluate_recorded(rules, sampler.shards)
        tail = evaluate_recorded(rules, sampler.shards, start=9.0,
                                 end=13.0, scenario="tail")
        assert tail.timestamps < full.timestamps
        assert all(9.0 <= record["at"] <= 13.0
                   for record in tail.events)
