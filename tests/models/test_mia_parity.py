"""MIA is byte-equal to its dense reference.

MIA's structural deltas come from degree vectors; :func:`mia_oracle`
rebuilds them from the dense ``A^2`` products, step by step and across a
roster churn that projects ``A_{t-1}``.
"""

import numpy as np

from repro.core import AfterProblem
from repro.models.poshgnn import MIA, POSHGNN

from tests.oracles import mia_oracle


def _assert_mia_matches_oracle(out, previous):
    delta, propagation = mia_oracle(out.adjacency, previous)
    assert out.delta.tobytes() == delta.tobytes()
    assert out.propagation.tobytes() == propagation.tobytes()


def test_mia_episode_matches_dense_oracle(problem):
    mia = MIA()
    mia.reset()
    previous = None
    for t in range(problem.horizon + 1):
        out = mia.process(problem.frame_at(t))
        _assert_mia_matches_oracle(out, previous)
        previous = out.adjacency


def test_mia_matches_dense_oracle_after_reroster(room):
    roster = np.arange(20)
    old = AfterProblem(room.subset(roster), target=0)
    model = POSHGNN(seed=3)
    model.reset(old)
    for t in range(3):
        model.recommend(old.frame_at(t))
    previous = model.carried_state()["previous_adjacency"]

    # Users 4 and 9 leave; users 25 and 27 join at the end.
    new_roster = np.array([u for u in roster if u not in (4, 9)] + [25, 27])
    keep = np.array([int(np.nonzero(roster == u)[0][0]) if u in roster
                     else -1 for u in new_roster])
    new = AfterProblem(room.subset(new_roster), target=0)
    model.reroster(new, keep)

    projected = np.zeros((len(new_roster), len(new_roster)))
    for i, source_i in enumerate(keep):
        for j, source_j in enumerate(keep):
            if source_i >= 0 and source_j >= 0:
                projected[i, j] = previous[source_i, source_j]
    out = model.mia.process(new.frame_at(3))
    _assert_mia_matches_oracle(out, projected)
    _assert_mia_matches_oracle(model.mia.process(new.frame_at(4)),
                               out.adjacency)
