"""The room-sharded serving fleet: placement, parity, failure, obs.

Each :class:`~repro.serving.Fleet` test forks real worker processes (the
transport is the production length-prefixed pipe protocol, not a mock),
so everything here is fork-gated and sized small.  Migration-specific
parity lives in ``test_migration_parity.py``.
"""

import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.core import AfterProblem, evaluate_episode
from repro.models.baselines import NearestRecommender
from repro.models.poshgnn import POSHGNN
from repro.obs import PERF, EventLog
from repro.serving import Fleet, HashRing, ShardFailure

from .conftest import make_room
from .test_stream_parity import assert_episodes_identical

fork_available = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable")


class TestHashRing:
    def test_placement_is_deterministic_across_instances(self):
        keys = [f"room{i}/t{i % 7}" for i in range(100)]
        first = [HashRing(4).place(key) for key in keys]
        second = [HashRing(4).place(key) for key in keys]
        assert first == second

    def test_every_shard_owns_keys(self):
        ring = HashRing(4)
        owners = {ring.place(f"session-{i}") for i in range(200)}
        assert owners == {0, 1, 2, 3}

    def test_adding_a_shard_only_moves_keys_onto_it(self):
        """Consistent hashing: growing the ring never reshuffles the
        keys that stay — a key either keeps its shard or moves to the
        new one."""
        keys = [f"room-{i}" for i in range(300)]
        before = HashRing(3)
        after = HashRing(4)
        moved = 0
        for key in keys:
            old, new = before.place(key), after.place(key)
            if old != new:
                assert new == 3, f"{key} moved {old}->{new}, not to shard 3"
                moved += 1
        assert 0 < moved < len(keys)

    def test_rejects_degenerate_rings(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(2, replicas=0)


def stream_through_fleet(fleet, cases):
    """Open, stream and close ``(problem, recommender)`` cases; returns
    the per-session results keyed by session id."""
    ids = [fleet.open_session(problem, recommender)
           for problem, recommender in cases]
    num_steps = max(len(case[0].room.trajectory.positions)
                    for case in cases)
    for t in range(num_steps):
        fleet.submit_many(
            (session_id, case[0].room.trajectory.positions[t])
            for session_id, case in zip(ids, cases)
            if t < len(case[0].room.trajectory.positions))
        fleet.drain()
    return {session_id: fleet.close_session(session_id)
            for session_id in ids}


@fork_available
class TestFleetServing:
    def test_streamed_results_match_offline_eval(self):
        cases = []
        for index in range(4):
            room = make_room("timik", 8, 3, seed=300 + index)
            cases.append((AfterProblem(room=room, target=index % 8,
                                       beta=0.5),
                          NearestRecommender() if index % 2
                          else POSHGNN(seed=index)))
        with Fleet(2, max_batch=8, max_queue=64) as fleet:
            spread = {HashRing(2).place(f"{c[0].room.name}/t{c[0].target}")
                      for c in cases}
            results = stream_through_fleet(fleet, cases)
        assert len(results) == 4
        # Compare each against a fresh offline evaluation.
        for index, (problem, _) in enumerate(cases):
            recommender = (NearestRecommender() if index % 2
                           else POSHGNN(seed=index))
            reference = evaluate_episode(problem, recommender)
            session_id = f"{problem.room.name}/t{problem.target}"
            assert_episodes_identical(reference, results[session_id])
        # And the placements came off the ring, not a default shard.
        assert spread <= {0, 1} and spread

    def test_fleet_budget_is_split_across_shards(self):
        """Fleet-wide max_queue=4 over 2 shards → 2 per shard, so the
        third frame to one room is shed by its shard's own ladder."""
        room = make_room("smm", 8, 6, seed=310)
        with Fleet(2, max_batch=4, max_queue=4) as fleet:
            sid = fleet.open_session(
                AfterProblem(room=room, target=0, beta=0.5),
                NearestRecommender())
            statuses = [fleet.submit(
                sid, room.trajectory.positions[t]).status
                for t in range(4)]
            fleet.drain()
            fleet.close_session(sid)
        assert statuses == ["queued", "queued", "shed", "shed"]

    def test_single_shard_keeps_engine_semantics(self):
        """num_shards=1 must behave exactly like one local engine."""
        room = make_room("hubs", 8, 4, seed=320)
        problem = AfterProblem(room=room, target=2, beta=0.5)
        reference = evaluate_episode(problem, NearestRecommender())
        with Fleet(1, max_batch=4, max_queue=64) as fleet:
            results = stream_through_fleet(
                fleet, [(problem, NearestRecommender())])
        assert_episodes_identical(reference,
                                  results[f"{room.name}/t2"])

    def test_explicit_shard_placement_and_reroute(self):
        room = make_room("timik", 8, 3, seed=330)
        with Fleet(2, max_batch=4, max_queue=64) as fleet:
            sid = fleet.open_session(
                AfterProblem(room=room, target=0, beta=0.5),
                NearestRecommender(), shard=1)
            assert fleet.shard_of(sid) == 1
            assert fleet.sessions_on(1) == [sid]
            assert fleet.sessions_on(0) == []
            with pytest.raises(ValueError):
                fleet.open_session(
                    AfterProblem(room=room, target=1, beta=0.5),
                    NearestRecommender(), shard=7)
            fleet.close_session(sid)

    def test_duplicate_session_id_rejected(self):
        room = make_room("timik", 8, 3, seed=331)
        with Fleet(2) as fleet:
            fleet.open_session(AfterProblem(room=room, target=0, beta=0.5),
                               NearestRecommender(), session_id="dup")
            with pytest.raises(ValueError, match="already open"):
                fleet.open_session(
                    AfterProblem(room=room, target=1, beta=0.5),
                    NearestRecommender(), session_id="dup")

    def test_worker_errors_surface_in_the_router(self):
        """An in-worker exception crosses the pipe as itself — the
        worker keeps serving afterwards."""
        room = make_room("smm", 8, 3, seed=332)
        with Fleet(1) as fleet:
            sid = fleet.open_session(
                AfterProblem(room=room, target=0, beta=0.5),
                NearestRecommender())
            with pytest.raises(KeyError):
                fleet.submit("no-such-session",
                             room.trajectory.positions[0])
            # Only engine methods are ops; anything else is named back.
            with pytest.raises(ValueError,
                               match="unknown fleet op 'result'"):
                fleet._call(0, "result", sid)
            # The shard is still alive and serving.
            fleet.submit(sid, room.trajectory.positions[0])
            fleet.drain()
            fleet.close_session(sid)


@fork_available
class TestShardFailure:
    def test_dead_shard_raises_and_names_its_sessions(self):
        room_a = make_room("timik", 8, 3, seed=340)
        room_b = make_room("smm", 8, 3, seed=341)
        with Fleet(2, max_batch=4, max_queue=64) as fleet:
            sid_a = fleet.open_session(
                AfterProblem(room=room_a, target=0, beta=0.5),
                NearestRecommender(), shard=0)
            sid_b = fleet.open_session(
                AfterProblem(room=room_b, target=0, beta=0.5),
                NearestRecommender(), shard=1)
            os.kill(fleet._shards[0].process.pid, signal.SIGKILL)
            fleet._shards[0].process.join(timeout=5.0)
            with pytest.raises(ShardFailure) as failure:
                for _ in range(3):   # first send may land in the pipe
                    fleet.submit(sid_a, room_a.trajectory.positions[0])
            assert failure.value.shard == 0
            assert failure.value.sessions == [sid_a]
            # The dead shard drops out of samples; the survivor serves.
            assert [entry["shard"]
                    for entry in fleet.telemetry_sample()] == [1]
            fleet.submit(sid_b, room_b.trajectory.positions[0])
            fleet.drain()
            fleet.close_session(sid_b)


@fork_available
class TestFleetObs:
    def test_close_merges_aggregate_and_shard_tagged(self):
        room = make_room("timik", 8, 3, seed=350)
        events = EventLog(enabled=True)
        PERF.reset().enable()
        try:
            with Fleet(2, max_batch=4, max_queue=64,
                       events=events) as fleet:
                sids = [fleet.open_session(
                    AfterProblem(room=room, target=t, beta=0.5),
                    NearestRecommender(), shard=t % 2,
                    session_id=f"obs{t}") for t in range(2)]
                for t in range(3):
                    fleet.submit_many(
                        (sid, room.trajectory.positions[t])
                        for sid in sids)
                    fleet.drain()
                for sid in sids:
                    fleet.close_session(sid)
            # Aggregate fold: both shards pumped, so the unprefixed
            # timer holds the sum of the shard-tagged ones.
            pump = PERF.timers["serving.pump"]
            tagged = [PERF.timers["shard0/serving.pump"],
                      PERF.timers["shard1/serving.pump"]]
            assert pump.count == sum(t.count for t in tagged)
            assert pump.total == pytest.approx(
                sum(t.total for t in tagged))
            assert PERF.histograms["serving.step_latency_s"].count == 6
        finally:
            PERF.disable().reset()
        # Worker session events arrive shard-tagged; router events
        # carry the fleet lifecycle.
        types = {record["type"] for record in events.records}
        assert {"fleet.open", "fleet.close", "session.open",
                "session.close"} <= types
        shards = {record["shard"] for record in events.records
                  if record["type"] == "session.open"}
        assert shards == {0, 1}

    def test_telemetry_sample_is_read_only_and_per_shard(self):
        """The ``sample`` command reads every live shard without
        resetting worker registries, so the fold at ``close`` is still
        exact — sampling composes with end-of-run accounting."""
        from repro.obs import TelemetrySampler

        room = make_room("timik", 8, 3, seed=352)
        PERF.reset().enable()
        try:
            with Fleet(2, max_batch=4, max_queue=64) as fleet:
                sids = [fleet.open_session(
                    AfterProblem(room=room, target=t, beta=0.5),
                    NearestRecommender(), shard=t % 2,
                    session_id=f"tel{t}") for t in range(2)]
                sampler = TelemetrySampler(fleet)
                sampler.sample(now=0.0)
                for t in range(3):
                    fleet.submit_many(
                        (sid, room.trajectory.positions[t])
                        for sid in sids)
                    fleet.drain()
                    sampler.sample(now=float(t + 1))
                raw = fleet.telemetry_sample()
                assert [entry["shard"] for entry in raw] == [0, 1]
                for shard in (0, 1):
                    telemetry = sampler.shards[shard]
                    assert telemetry.aggregate("serving.open_sessions",
                                               "last") == 1.0
                    # each shard stepped its session every tick
                    assert telemetry.aggregate(
                        "serving.step_latency_s", "count") == 3.0
                    assert telemetry.aggregate("serving.shed_rate",
                                               "max") == 0.0
                for sid in sids:
                    fleet.close_session(sid)
            # Sampling consumed nothing: the fold still sees all steps.
            assert PERF.histograms["serving.step_latency_s"].count == 6
        finally:
            PERF.disable().reset()

    def test_shard_failure_emits_event_and_dumps_incident(self, tmp_path):
        """_mark_dead feeds the flight recorder: one bundle per lost
        shard, with the events that preceded the failure inside it."""
        from repro.obs import FlightRecorder, load_incident

        room = make_room("timik", 8, 3, seed=353)
        events = EventLog(enabled=True)
        recorder = FlightRecorder(directory=tmp_path)
        recorder.attach(events=events)
        try:
            with Fleet(2, max_batch=4, max_queue=64, events=events,
                       recorder=recorder) as fleet:
                sid = fleet.open_session(
                    AfterProblem(room=room, target=0, beta=0.5),
                    NearestRecommender(), shard=0)
                os.kill(fleet._shards[0].process.pid, signal.SIGKILL)
                fleet._shards[0].process.join(timeout=5.0)
                with pytest.raises(ShardFailure):
                    for _ in range(3):
                        fleet.submit(sid, room.trajectory.positions[0])
                failures = [r for r in events.records
                            if r["type"] == "fleet.shard_failure"]
                assert len(failures) == 1
                assert failures[0]["shard"] == 0
                assert failures[0]["sessions"] == [sid]
                assert len(recorder.dumps) == 1
                incident = load_incident(recorder.dumps[0])
                assert "shard0" in incident["manifest"]["reason"]
                kinds = [r["type"] for r in incident["events"]]
                assert "fleet.shard_failure" in kinds
                assert "fleet.open" in kinds
        finally:
            recorder.detach()

    def test_shutdown_folds_final_worker_state(self):
        room = make_room("smm", 8, 2, seed=351)
        PERF.reset().enable()
        try:
            fleet = Fleet(1, max_batch=4, max_queue=16)
            sid = fleet.open_session(
                AfterProblem(room=room, target=0, beta=0.5),
                NearestRecommender())
            fleet.submit(sid, room.trajectory.positions[0])
            fleet.drain()
            fleet.close_session(sid)
            fleet.close()
            assert PERF.histograms["serving.step_latency_s"].count == 1
            assert "shard0/serving.pump" in PERF.timers
        finally:
            PERF.disable().reset()


def _merge_after_queued_churn(stack, events=None):
    """Open rooms ``a`` and ``b``, submit one frame each, churn ``b``
    (its change queues behind the frame), ``drain()``, then merge ``b``
    into ``a`` and serve the merged room one more frame.

    Returns the merged secondary's result and the primary's closed
    result; ``stack`` is an engine or a fleet.
    """
    from repro.serving.replay import _as_result
    from repro.serving.workload import merge_spec, roster_change

    universe = make_room("timik", 16, 3, seed=360)
    positions = universe.trajectory.positions
    kwargs = {"beta": 0.5, "max_render": 10,
              "interfaces": universe.interfaces_mr.copy()}
    a_users, b_users = list(range(8)), list(range(8, 16))

    def problem(users, name):
        roster = np.asarray(users, dtype=np.int64)
        return AfterProblem(room=universe.subset(
            roster, name=name,
            interfaces_mr=kwargs["interfaces"][roster]),
            target=0, beta=0.5, max_render=10)

    placement = {} if events is None else {"a": {"shard": 0},
                                           "b": {"shard": 1}}
    for name, users in (("a", a_users), ("b", b_users)):
        stack.open_session(problem(users, name), POSHGNN(seed=5),
                           session_id=name, **placement.get(name, {}))
    for name, users in (("a", a_users), ("b", b_users)):
        stack.submit(name, positions[0][users])
    b_left = b_users[:-1]
    stack.churn_session("b", roster_change(
        universe, "leave", b_users, b_left, b_users[0], name="b",
        **kwargs))
    stack.drain()
    merged_users = a_users + b_left
    merged = _as_result(stack.merge_sessions("a", "b", merge_spec(
        universe, a_users, b_left, merged_users, a_users[0], name="a",
        **kwargs)))
    stack.submit("a", positions[1][merged_users])
    stack.drain()
    return merged, _as_result(stack.close_session("a"))


@fork_available
@pytest.mark.parametrize("num_shards", [1, 2])
def test_merge_after_drained_churn_matches_engine(num_shards):
    """A churn marker left behind the last frame is applied by
    ``drain()`` on every shard, so a fleet merges exactly where the
    engine does; a cross-shard merge first co-locates the secondary
    with one live migration."""
    from repro.serving import SessionEngine

    with SessionEngine() as engine:
        expected = _merge_after_queued_churn(engine)
    events = EventLog(enabled=True)
    with Fleet(num_shards, events=events) as fleet:
        actual = _merge_after_queued_churn(
            fleet, events if num_shards == 2 else None)
        assert fleet.session_ids == []
    for reference, result in zip(expected, actual):
        assert_episodes_identical(reference, result)
        assert reference.recommendations.tobytes() \
            == result.recommendations.tobytes()
        assert reference.per_step_after.tobytes() \
            == result.per_step_after.tobytes()
    migrations = [record for record in events.records
                  if record["type"] == "fleet.migrate"]
    assert len(migrations) == (num_shards - 1)
    if migrations:
        assert (migrations[0]["session_id"], migrations[0]["source"],
                migrations[0]["target"]) == ("b", 1, 0)


@fork_available
def test_broadcast_reads_every_live_reply_before_raising():
    """A pump that meets a dead shard raises ``ShardFailure`` only
    after reading the survivors' replies, so the next call to a
    survivor gets its own reply, not a stale pump result."""
    room_a = make_room("timik", 8, 3, seed=370)
    room_b = make_room("smm", 8, 3, seed=371)
    with Fleet(2, max_batch=4, max_queue=64) as fleet:
        sid_a = fleet.open_session(
            AfterProblem(room=room_a, target=0, beta=0.5),
            NearestRecommender(), shard=0)
        sid_b = fleet.open_session(
            AfterProblem(room=room_b, target=0, beta=0.5),
            NearestRecommender(), shard=1)
        fleet.submit(sid_b, room_b.trajectory.positions[0])
        os.kill(fleet._shards[0].process.pid, signal.SIGKILL)
        fleet._shards[0].process.join(timeout=5.0)
        with pytest.raises(ShardFailure) as failure:
            fleet.pump()
        assert failure.value.sessions == [sid_a]
        ticket = fleet.submit(sid_b, room_b.trajectory.positions[1])
        assert (ticket.session_id, ticket.t, ticket.status) \
            == (sid_b, 1, "queued")
        assert len(fleet.drain()) == 1
        fleet.close_session(sid_b)
