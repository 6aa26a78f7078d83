"""A suspended session ships its problem once.

``RoomSession.suspend`` deep-copies the recommender and the carried
state but shares the (never mutated) problem, including the reference
the recommender holds.  A pickled snapshot, which is what a fleet
migration sends between shards, therefore carries the room one time,
and a resumed recommender points at the snapshot's problem.
"""

import pickle

from repro.core import AfterProblem
from repro.models.poshgnn import POSHGNN
from repro.serving import RoomSession

from .conftest import make_room


def _suspended(num_users=24, num_steps=4, cut=2):
    room = make_room("smm", num_users, num_steps, seed=5)
    session = RoomSession(AfterProblem(room=room, target=0),
                          POSHGNN(seed=1)).begin()
    for t in range(cut):
        session.step(room.trajectory.positions[t])
    return session, session.suspend()


def test_snapshot_recommender_shares_the_problem():
    session, snapshot = _suspended()
    assert snapshot.problem is session.problem
    assert snapshot.state["recommender"].problem is snapshot.problem
    resumed = RoomSession.resume(snapshot)
    assert resumed.problem is snapshot.problem
    assert resumed.recommender.problem is snapshot.problem


def test_pickled_snapshot_carries_the_problem_once():
    _, snapshot = _suspended()
    problem_bytes = len(pickle.dumps(snapshot.problem))
    snapshot_bytes = len(pickle.dumps(snapshot))
    # A second copy of the problem would at least double the size.
    assert snapshot_bytes < 2 * problem_bytes
    restored = pickle.loads(pickle.dumps(snapshot))
    assert restored.state["recommender"].problem is restored.problem
