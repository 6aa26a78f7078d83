"""Exact cross-process merging of instrumentation state.

The serving fleet folds every shard's :meth:`Instrumentation.export_state`
payload into the parent registry with :meth:`merge_snapshot`, once as
aggregate totals and once shard-tagged.  The fold must be exact: merging
a registry's exported state into an empty one reproduces it.
"""

from repro.core.evaluation import evaluate_targets
from repro.datasets import RoomConfig, generate_room
from repro.models import NearestRecommender
from repro.obs import PERF
from repro.obs.instrumentation import Instrumentation

TARGETS = [0, 2, 5, 9, 11]


def test_export_merge_round_trip_is_exact():
    room = generate_room("smm", RoomConfig(num_users=16, num_steps=6),
                         seed=4)
    PERF.reset().enable()
    try:
        evaluate_targets(room, NearestRecommender(), TARGETS)
        state = PERF.export_state()
    finally:
        PERF.disable().reset()
    assert state["timers"]["eval.episode"]["count"] == len(TARGETS)
    assert state["counters"]["eval.episodes"] == len(TARGETS)
    merged = Instrumentation().merge_snapshot(state)
    assert merged.export_state() == state


# ----------------------------------------------------------------------
# Prefixed merging (the serving fleet's shard-tagged fold)
# ----------------------------------------------------------------------
def _worker_state(pump_seconds, steps):
    """An export_state payload shaped like one shard's registry."""
    from repro.obs.instrumentation import Instrumentation

    registry = Instrumentation().enable()
    with registry.scope("serving.pump"):
        pass
    payload = registry.export_state()
    # Make the timings deterministic for exact-fold assertions.
    timer = payload["timers"]["serving.pump"]
    timer["total"] = timer["min"] = timer["max"] = pump_seconds
    payload["counters"] = {"serving.steps_shed": steps}
    payload["histograms"] = {}
    return payload


def test_merge_snapshot_prefix_namespaces_every_metric():
    from repro.obs.instrumentation import Instrumentation

    registry = Instrumentation()
    registry.merge_snapshot(_worker_state(0.25, 3), prefix="shard0/")
    registry.merge_snapshot(_worker_state(0.75, 5), prefix="shard1/")
    assert set(registry.timers) == {"shard0/serving.pump",
                                    "shard1/serving.pump"}
    assert registry.timers["shard0/serving.pump"].total == 0.25
    assert registry.counters == {"shard0/serving.steps_shed": 3,
                                 "shard1/serving.steps_shed": 5}


def test_prefixed_and_unprefixed_folds_coexist_exactly():
    """The fleet merges each shard twice: aggregate + tagged.  The
    unprefixed entries must equal the sum of the tagged ones."""
    from repro.obs.instrumentation import Instrumentation

    registry = Instrumentation()
    states = [_worker_state(0.25, 3), _worker_state(0.75, 5)]
    for index, state in enumerate(states):
        registry.merge_snapshot(state)
        registry.merge_snapshot(state, prefix=f"shard{index}/")
    aggregate = registry.timers["serving.pump"]
    assert aggregate.count == sum(
        registry.timers[f"shard{i}/serving.pump"].count
        for i in range(2))
    assert aggregate.total == 1.0
    assert aggregate.min == 0.25 and aggregate.max == 0.75
    assert registry.counters["serving.steps_shed"] == 8
    assert registry.counters["shard1/serving.steps_shed"] == 5


def test_empty_prefix_is_the_exact_legacy_merge():
    from repro.obs.instrumentation import Instrumentation

    registry = Instrumentation()
    registry.merge_snapshot(_worker_state(0.5, 2))
    registry.merge_snapshot(_worker_state(0.5, 2), prefix="")
    assert registry.timers["serving.pump"].count == 2
    assert registry.counters == {"serving.steps_shed": 4}


def test_colliding_prefixes_fold_not_overwrite():
    """Two folds under the *same* prefix must add exactly, the same as
    an unprefixed double-merge — a restarted shard reusing an index
    must not clobber its predecessor's numbers."""
    from repro.obs.instrumentation import Instrumentation

    registry = Instrumentation()
    registry.merge_snapshot(_worker_state(0.25, 3), prefix="shard0/")
    registry.merge_snapshot(_worker_state(0.75, 5), prefix="shard0/")
    timer = registry.timers["shard0/serving.pump"]
    assert timer.count == 2
    assert timer.total == 1.0
    assert timer.min == 0.25 and timer.max == 0.75
    assert registry.counters == {"shard0/serving.steps_shed": 8}


def test_reprefixing_already_tagged_state_nests_namespaces():
    """Prefixing is purely textual: folding a registry that already
    holds ``shard1/``-tagged entries under another prefix nests the
    namespaces instead of silently colliding with the flat names."""
    from repro.obs.instrumentation import Instrumentation

    inner = Instrumentation()
    inner.merge_snapshot(_worker_state(0.5, 2), prefix="shard1/")
    outer = Instrumentation()
    outer.merge_snapshot(inner.export_state(), prefix="shard1/")
    assert set(outer.timers) == {"shard1/shard1/serving.pump"}
    assert outer.counters == {"shard1/shard1/serving.steps_shed": 2}
    # ...and a colliding flat fold of the same inner state stays distinct
    outer.merge_snapshot(inner.export_state())
    assert set(outer.timers) == {"shard1/shard1/serving.pump",
                                 "shard1/serving.pump"}
    assert outer.counters["shard1/serving.steps_shed"] == 2
