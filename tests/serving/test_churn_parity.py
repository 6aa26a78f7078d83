"""Property suite: roster churn is exact, not approximate.

The churn contract (docs/WORKLOADS.md) is that mutating a live room's
roster — a user leaving, joining, or handing off between VR and MR —
leaves the session *bit-identical* to a fresh session opened on the
post-churn roster with the projected carried state installed.  The
reference state here is always projected with plain Python/numpy loops
in the test itself, a deliberately independent re-implementation of
:meth:`~repro.serving.RoomSession.apply_churn` and the recommenders'
``reroster`` overrides, so a shared bug cannot cancel out.

Churn also composes with every other mid-stream cut: suspend/resume
and engine-to-engine migration may interleave with queued churn markers
without perturbing a single bit of the continuation.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AfterProblem
from repro.models.baselines import NearestRecommender
from repro.models.poshgnn import POSHGNN
from repro.serving import RoomSession, SessionEngine
from repro.serving.workload import roster_change

from .conftest import DATASETS, make_room


def _subset_problem(universe, roster, target_user, *, beta=0.5,
                    max_render=4, interfaces=None):
    roster = np.asarray(roster, dtype=np.int64)
    mr = None if interfaces is None else interfaces[roster]
    return AfterProblem(
        room=universe.subset(roster, interfaces_mr=mr),
        target=int(np.nonzero(roster == target_user)[0][0]),
        beta=beta, max_render=max_render)


def _project_bool(old: np.ndarray, keep) -> np.ndarray:
    """Reference projection: plain-loop gather, joiners blank."""
    new = np.zeros(len(keep), dtype=bool)
    for slot, source in enumerate(keep):
        if source >= 0:
            new[slot] = old[source]
    return new


def _assert_steps_identical(expected, actual):
    assert len(expected) == len(actual)
    for left, right in zip(expected, actual):
        assert left.t == right.t
        np.testing.assert_array_equal(left.rendered, right.rendered)
        assert left.shed == right.shed
        assert left.degraded == right.degraded
        if left.utility is None:
            assert right.utility is None
        else:
            assert left.utility.preference == right.utility.preference
            assert left.utility.presence == right.utility.presence
            assert (left.occlusion_rate == right.occlusion_rate
                    or (np.isnan(left.occlusion_rate)
                        and np.isnan(right.occlusion_rate)))


@st.composite
def churn_cases(draw):
    """(universe, roster, target user, cut step, churn op)."""
    dataset = draw(st.sampled_from(DATASETS))
    universe_users = draw(st.integers(8, 12))
    num_steps = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 500))
    universe = make_room(dataset, universe_users, num_steps, seed)
    size = draw(st.integers(5, universe_users - 1))
    roster = sorted(draw(st.permutations(range(universe_users)))[:size])
    target_user = roster[draw(st.integers(0, size - 1))]
    cut = draw(st.integers(0, num_steps))
    kind = draw(st.sampled_from(("leave", "join", "handoff")))
    return universe, roster, target_user, cut, kind


def _apply_case_churn(session, universe, roster, target_user, kind,
                      draw_index):
    """Apply one churn op; returns (new roster, applied change).

    The change is lowered by
    :func:`~repro.serving.workload.roster_change`, the path
    :meth:`~repro.serving.ReplayDriver.run_plan` takes for a workload
    plan's join, leave and handoff events.
    """
    interfaces = universe.interfaces_mr.copy()
    if kind == "leave":
        movable = [u for u in roster if u != target_user]
        victim = movable[draw_index % len(movable)]
        new_roster = [u for u in roster if u != victim]
    elif kind == "join":
        free = sorted(set(range(universe.num_users)) - set(roster))
        new_roster = roster + [free[draw_index % len(free)]]
    else:
        flipped = roster[draw_index % len(roster)]
        interfaces[flipped] = ~interfaces[flipped]
        new_roster = list(roster)
    change = roster_change(universe, kind, roster, new_roster, target_user,
                           name=universe.name, beta=0.5, max_render=4,
                           interfaces=interfaces)
    session.apply_churn(change)
    return new_roster, change


@settings(max_examples=25, deadline=None)
@given(churn_cases(), st.integers(0, 10 ** 6))
def test_churned_session_equals_seeded_fresh_session(case, draw_index):
    """Post-churn steps match a fresh session with projected state.

    The fresh session is built through a *different* path: a new
    recommender on the post-churn problem, display state projected by
    the test's own loop and installed via ``RoomSession.seeded`` — if
    ``apply_churn`` mutated anything it should not (stale converter,
    cached DOGs, history widths), the continuations diverge.
    """
    universe, roster, target_user, cut, kind = case
    positions = universe.trajectory.positions
    problem = _subset_problem(universe, roster, target_user)
    session = RoomSession(problem, NearestRecommender(),
                          session_id="churned").begin()
    for t in range(cut):
        session.step(positions[t][np.asarray(roster)])

    pre_visible = session._visible_previous.copy()
    pre_rendered = session._rendered_previous.copy()
    new_roster, change = _apply_case_churn(
        session, universe, roster, target_user, kind, draw_index)

    reference = RoomSession.seeded(
        change.problem, NearestRecommender(), session_id="fresh",
        t_next=cut,
        visible_previous=_project_bool(pre_visible, change.keep),
        rendered_previous=_project_bool(pre_rendered, change.keep))

    gather = np.asarray(new_roster)
    for t in range(cut, universe.horizon + 1):
        session.step(positions[t][gather])
        reference.step(positions[t][gather])
    _assert_steps_identical(reference.steps, session.steps[cut:])
    np.testing.assert_array_equal(reference._visible_previous,
                                  session._visible_previous)


@settings(max_examples=15, deadline=None)
@given(churn_cases(), st.integers(0, 10 ** 6))
def test_poshgnn_reroster_matches_numpy_projection(case, draw_index):
    """POSHGNN's projected state equals an independent loop projection."""
    universe, roster, target_user, cut, kind = case
    positions = universe.trajectory.positions
    problem = _subset_problem(universe, roster, target_user)
    session = RoomSession(problem, POSHGNN(seed=11),
                          session_id="gnn").begin()
    for t in range(cut):
        session.step(positions[t][np.asarray(roster)])

    before = session.recommender.carried_state()
    new_roster, change = _apply_case_churn(
        session, universe, roster, target_user, kind, draw_index)
    after = session.recommender.carried_state()

    count = len(new_roster)
    expected_hidden = np.zeros((count, before["hidden"].shape[1]))
    expected_recommendation = np.zeros(count)
    expected_rendered = np.zeros(count, dtype=bool)
    for slot, source in enumerate(change.keep):
        if source >= 0:
            expected_hidden[slot] = before["hidden"][source]
            expected_recommendation[slot] = \
                before["recommendation"][source]
            expected_rendered[slot] = before["rendered"][source]
    np.testing.assert_array_equal(after["hidden"], expected_hidden)
    np.testing.assert_array_equal(after["recommendation"],
                                  expected_recommendation)
    np.testing.assert_array_equal(after["rendered"], expected_rendered)
    if before["previous_adjacency"] is None:
        assert after["previous_adjacency"] is None
    else:
        expected_adjacency = np.zeros((count, count))
        for i, si in enumerate(change.keep):
            for j, sj in enumerate(change.keep):
                if si >= 0 and sj >= 0:
                    expected_adjacency[i, j] = \
                        before["previous_adjacency"][si, sj]
        np.testing.assert_array_equal(after["previous_adjacency"],
                                      expected_adjacency)
    # The projected session must still advance cleanly.
    session.step(positions[min(cut, universe.horizon)]
                 [np.asarray(new_roster)])


@settings(max_examples=15, deadline=None)
@given(churn_cases(), st.integers(0, 10 ** 6))
def test_suspend_resume_interleaved_with_churn(case, draw_index):
    """churn -> suspend -> resume continues bit-identically."""
    universe, roster, target_user, cut, kind = case
    positions = universe.trajectory.positions
    problem = _subset_problem(universe, roster, target_user)

    def run(with_cut: bool) -> RoomSession:
        session = RoomSession(problem, POSHGNN(seed=5),
                              session_id="cutme").begin()
        for t in range(cut):
            session.step(positions[t][np.asarray(roster)])
        new_roster, _ = _apply_case_churn(
            session, universe, roster, target_user, kind, draw_index)
        if with_cut:
            session = RoomSession.resume(session.suspend())
        gather = np.asarray(new_roster)
        for t in range(cut, universe.horizon + 1):
            session.step(positions[t][gather])
        return session

    _assert_steps_identical(run(False).steps, run(True).steps)


@settings(max_examples=12, deadline=None)
@given(churn_cases(), st.integers(0, 10 ** 6), st.integers(0, 3))
def test_queued_churn_matches_serial_application(case, draw_index,
                                                 backlog):
    """A churn marker queued behind pending steps applies in order.

    The engine run leaves ``backlog`` pre-churn frames unpumped when
    the churn arrives (so the marker queues behind them); the serial
    reference steps the same frames and churns at the same submit
    boundary.  Both must produce identical step sequences — the
    regression this pins is the engine applying a churn eagerly while
    pre-churn frames are still in flight.
    """
    universe, roster, target_user, cut, kind = case
    positions = universe.trajectory.positions
    problem = _subset_problem(universe, roster, target_user)

    serial = RoomSession(problem, NearestRecommender(),
                         session_id="serial").begin()
    for t in range(cut):
        serial.step(positions[t][np.asarray(roster)])
    new_roster, change = _apply_case_churn(
        serial, universe, roster, target_user, kind, draw_index)
    gather = np.asarray(new_roster)
    for t in range(cut, universe.horizon + 1):
        serial.step(positions[t][gather])

    with SessionEngine(max_batch=4) as engine:
        engine.open_session(problem, NearestRecommender(),
                            session_id="queued")
        backlog = min(backlog, cut)
        for t in range(cut - backlog):
            engine.submit("queued", positions[t][np.asarray(roster)])
            engine.pump()
        for t in range(cut - backlog, cut):
            engine.submit("queued", positions[t][np.asarray(roster)])
        engine.churn_session("queued", change)
        assert engine.session("queued").churn_count == (0 if backlog
                                                        else 1)
        for t in range(cut, universe.horizon + 1):
            engine.submit("queued", positions[t][gather])
        engine.drain()
        streamed = engine.close_session("queued")
    _assert_steps_identical(serial.steps, streamed.steps)


@settings(max_examples=10, deadline=None)
@given(churn_cases(), st.integers(0, 10 ** 6))
def test_migration_cut_with_pending_churn_marker(case, draw_index):
    """Suspending mid-queue ships churn markers across engines intact.

    The session migrates from one engine to another while a pre-churn
    frame *and* the churn marker are still pending — the marker must
    travel with the queue and apply on the adopting engine exactly
    where it would have on the source.
    """
    universe, roster, target_user, cut, kind = case
    positions = universe.trajectory.positions
    problem = _subset_problem(universe, roster, target_user)

    serial = RoomSession(problem, NearestRecommender(),
                         session_id="serial").begin()
    for t in range(cut):
        serial.step(positions[t][np.asarray(roster)])
    new_roster, change = _apply_case_churn(
        serial, universe, roster, target_user, kind, draw_index)
    gather = np.asarray(new_roster)
    for t in range(cut, universe.horizon + 1):
        serial.step(positions[t][gather])

    source = SessionEngine(max_batch=4)
    target = SessionEngine(max_batch=4)
    with source, target:
        source.open_session(problem, NearestRecommender(),
                            session_id="mover")
        backlog = min(1, cut)
        for t in range(cut - backlog):
            source.submit("mover", positions[t][np.asarray(roster)])
            source.pump()
        for t in range(cut - backlog, cut):
            source.submit("mover", positions[t][np.asarray(roster)])
        source.churn_session("mover", change)
        post = list(range(cut, universe.horizon + 1))
        if post:
            source.submit("mover", positions[post[0]][gather])
        snapshot, pending = source.suspend_session("mover")
        target.adopt_session(snapshot, pending)
        for t in post[1:]:
            target.submit("mover", positions[t][gather])
        target.drain()
        streamed = target.close_session("mover")
    _assert_steps_identical(serial.steps, streamed.steps)
