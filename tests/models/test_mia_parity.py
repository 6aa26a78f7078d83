"""MIA and the stacked forward are byte-equal to their references.

MIA's structural deltas come from degree vectors; :func:`mia_oracle`
rebuilds them from the dense ``A^2`` products, step by step and across a
roster churn that projects ``A_{t-1}``.  ``POSHGNN.step_stacked`` on a
``(B, N, N)`` stack must reproduce per-room ``POSHGNN.step`` slice by
slice while the recurrent state is carried.
"""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AfterProblem
from repro.datasets import RoomConfig, generate_timik_room
from repro.models.poshgnn import MIA, POSHGNN
from repro.nn import Tensor, no_grad

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


@lru_cache(maxsize=None)
def _room(num_users: int, seed: int):
    return generate_timik_room(
        RoomConfig(num_users=num_users, num_steps=4), seed=seed)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.sampled_from([6, 9, 14]), st.integers(0, 2),
       st.booleans(), st.integers(0, 1000))
def test_step_stacked_matches_per_room_step_bytes(rooms, num_users,
                                                  room_seed, use_lwp,
                                                  model_seed):
    """Each slice of one stacked forward equals that room's own step."""
    room = _room(num_users, room_seed)
    problems = [AfterProblem(room, target=b % num_users)
                for b in range(rooms)]
    model = POSHGNN(seed=model_seed, use_lwp=use_lwp)
    mias = [MIA() for _ in problems]
    hidden, recommendation = zip(*[model.initial_state(num_users)
                                   for _ in problems])
    stacked_hidden = Tensor(np.stack([h.data for h in hidden]))
    stacked_recommendation = Tensor(
        np.stack([r.data for r in recommendation]))
    hidden, recommendation = list(hidden), list(recommendation)

    with no_grad():
        for t in range(room.horizon + 1):
            outputs = []
            for b, problem in enumerate(problems):
                model.mia = mias[b]  # each room carries its own A_{t-1}
                recommendation[b], hidden[b], aggregated = model.step(
                    problem.frame_at(t), hidden[b], recommendation[b])
                outputs.append(aggregated)
            stacked_recommendation, stacked_hidden = model.step_stacked(
                *(Tensor(np.stack([getattr(out, name) for out in outputs]))
                  for name in ("features", "delta", "mask", "propagation")),
                stacked_hidden, stacked_recommendation)
            for b in range(rooms):
                assert (stacked_recommendation.data[b].tobytes()
                        == recommendation[b].data.tobytes())
                assert (stacked_hidden.data[b].tobytes()
                        == hidden[b].data.tobytes())
