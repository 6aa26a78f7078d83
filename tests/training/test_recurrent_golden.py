"""Golden bytes for the recurrent baselines' fit.

No benchmark workload trains DCRNN or T-GCN, so this file pins what
their ``fit`` produces: ``golden_recurrent_fit.json`` holds, per model,
the loss history (as hex floats), the resolved alpha, the selected
training-episode utility and a SHA-256 over the fitted state dict.  A
refactor of the training loop must reproduce every value exactly.

To re-record after an intended numerical change::

    PYTHONPATH=src python tests/training/test_recurrent_golden.py
"""

import hashlib
import json
import os

import pytest

from repro.core import AfterProblem
from repro.datasets import RoomConfig, generate_timik_room
from repro.models import DCRNNRecommender, TGCNRecommender

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_recurrent_fit.json")

MODELS = {"DCRNN": DCRNNRecommender, "TGCN": TGCNRecommender}

FIT_KWARGS = dict(restarts=2, epochs=4)


def _state_digest(state: dict) -> str:
    digest = hashlib.sha256()
    for name in sorted(state):
        digest.update(name.encode())
        digest.update(state[name].tobytes())
    return digest.hexdigest()


def fit_record(model_class, problems) -> dict:
    """Fit one model at seed 0 and describe the result exactly."""
    model = model_class(seed=0)
    history = model.fit(problems, **FIT_KWARGS)
    return {
        "loss": [float(value).hex() for value in history["loss"]],
        "alpha": float(history["alpha"]).hex(),
        "train_utility": float(history["train_utility"]).hex(),
        "state_sha256": _state_digest(model.state_dict()),
    }


def _problems() -> list:
    room = generate_timik_room(RoomConfig(num_users=12, num_steps=6), seed=0)
    return [AfterProblem(room, t) for t in (0, 1)]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_fit_matches_golden(name):
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    assert fit_record(MODELS[name], _problems()) == golden[name]


if __name__ == "__main__":
    problems = _problems()
    record = {name: fit_record(model_class, problems)
              for name, model_class in sorted(MODELS.items())}
    with open(GOLDEN, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN}")
