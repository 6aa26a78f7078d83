"""Output checks: pure functions over what a workload produced.

Each returns a list of failure messages (empty when the outputs are
correct), so the benchmark's own tests can feed them deliberately
perturbed outputs and watch them trip.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

#: Scalar fields of an episode result that must match byte for byte.
#: ``runtime_ms`` is wall-clock time and is left out.
_EPISODE_SCALARS = ("after_utility", "preference", "presence",
                    "occlusion_rate")


def episode_digest(episode) -> str:
    """BLAKE2b digest of an episode's outputs, wall-clock time excluded."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.ascontiguousarray(episode.recommendations).tobytes())
    digest.update(np.ascontiguousarray(
        episode.per_step_after, dtype=np.float64).tobytes())
    for name in _EPISODE_SCALARS:
        digest.update(np.float64(getattr(episode, name)).tobytes())
    return digest.hexdigest()


def state_digest(state: dict) -> str:
    """BLAKE2b digest of a module ``state_dict`` (names and values)."""
    digest = hashlib.blake2b(digest_size=16)
    for name, value in state.items():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


def episodes_equal(label: str, expected, actual) -> list:
    """Two episode results must be byte-equal."""
    if episode_digest(expected) == episode_digest(actual):
        return []
    return [f"{label}: episode outputs differ"]


def digests_agree(label: str, digests: dict) -> list:
    """Every repetition of one key must produce the first one's digest."""
    failures = []
    for key, values in digests.items():
        if any(value != values[0] for value in values[1:]):
            failures.append(f"{label} {key}: repetitions differ")
    return failures


def tickets_balance(label: str, submitted: int, processed: int,
                    shed: int) -> list:
    """Every submitted frame is either processed or shed, exactly once."""
    if submitted == processed + shed:
        return []
    return [f"{label}: {submitted} submitted != {processed} processed "
            f"+ {shed} shed"]


def plan_results_equal(label: str, expected: dict, actual: dict) -> list:
    """Per-room results of a plan execution against a reference run."""
    if set(expected) != set(actual):
        return [f"{label}: rooms differ "
                f"({sorted(set(expected) ^ set(actual))[:4]})"]
    failures = []
    for room in sorted(expected):
        failures += episodes_equal(f"{label} room {room}", expected[room],
                                   actual[room])
    return failures


def loss_history_ok(label: str, losses) -> list:
    """A training run's losses are finite and end below where they began."""
    losses = [float(value) for value in losses]
    if len(losses) < 2:
        return [f"{label}: fewer than two epochs of loss history"]
    if not all(math.isfinite(value) for value in losses):
        return [f"{label}: non-finite loss in {losses}"]
    if not losses[-1] < losses[0]:
        return [f"{label}: final loss {losses[-1]} is not below the "
                f"initial {losses[0]}"]
    return []
