"""Golden bytes for batched multi-room BPTT (``batch_rooms=2``).

``golden_batched_train.json`` pins the stacked training path: the loss
history and a SHA-256 over the final ``state_dict`` bytes of
``POSHGNNTrainer(batch_rooms=2)`` with shuffling off and on, and of
DCRNN and T-GCN ``fit(batch_rooms=2)``.  The batched path must keep
producing exactly these bytes.

Regenerate (only when a change is *meant* to move the numbers) with::

    PYTHONPATH=src python -m tests.training.test_batched_golden
"""

import hashlib
import json
import os

import pytest

from repro.core import AfterProblem
from repro.datasets import RoomConfig, generate_timik_room
from repro.models import DCRNNRecommender, POSHGNN, TGCNRecommender
from repro.models.poshgnn.trainer import POSHGNNTrainer

GOLDEN = os.path.join(os.path.dirname(__file__),
                      "golden_batched_train.json")

CASES = ("poshgnn-noshuffle", "poshgnn-shuffle", "DCRNN", "TGCN")


def state_digest(state) -> str:
    """SHA-256 over every ``(name, dtype, shape, bytes)`` entry, by name."""
    digest = hashlib.sha256()
    for name in sorted(state):
        value = state[name]
        digest.update(f"{name}|{value.dtype.str}|{value.shape}|".encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


def run_case(case: str, problems) -> dict:
    """Train one golden case; return its loss history and state digest."""
    if case.startswith("poshgnn"):
        model = POSHGNN(seed=0)
        result = POSHGNNTrainer(model, epochs=3, batch_rooms=2, seed=3,
                                shuffle=case == "poshgnn-shuffle"
                                ).train(problems)
    else:
        cls = {"DCRNN": DCRNNRecommender, "TGCN": TGCNRecommender}[case]
        model = cls(seed=0)
        result = model.fit(problems, epochs=3, restarts=1, batch_rooms=2)
    return {"loss": list(result["loss"]),
            "state_sha256": state_digest(model.state_dict())}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("case", CASES)
def test_batched_training_matches_golden_bytes(case, golden_problems,
                                               golden):
    assert run_case(case, golden_problems) == golden["cases"][case]


def make_problems():
    """Three targets, so ``batch_rooms=2`` trains a pair and a single."""
    room = generate_timik_room(RoomConfig(num_users=12, num_steps=6), seed=0)
    return [AfterProblem(room, t) for t in (0, 1, 2)]


@pytest.fixture(scope="module")
def golden_problems():
    return make_problems()


if __name__ == "__main__":
    problems = make_problems()
    record = {
        "description": (
            "Batched multi-room BPTT (batch_rooms=2, epochs=3) on the "
            "timik room N=12 T=6 seed=0, targets 0, 1 and 2: loss "
            "history and SHA-256 of the final state_dict bytes."),
        "cases": {case: run_case(case, problems) for case in CASES},
    }
    with open(GOLDEN, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN}")
