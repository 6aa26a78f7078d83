"""Gradcheck every registered tape primitive against central differences.

The registry-driven layout makes the coverage self-enforcing: a newly
registered primitive fails ``test_every_primitive_has_a_case`` until a
finite-difference case is added here.
"""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tape import PRIMITIVES

from .test_gradcheck import assert_gradcheck


def _rng():
    return np.random.default_rng(7)


def _away_from(x, bad, margin):
    """Push samples at least ``margin`` away from each value in ``bad``."""
    for value in bad:
        close = np.abs(x - value) < margin
        x = np.where(close, value + margin * np.sign(x - value + 0.5), x)
    return x


# name -> (make_loss, list-of-input-arrays, atol).
CASES = {
    "add": lambda rng: (
        lambda a, b: ((a + b) * (a + b)).sum(),
        [rng.normal(size=(3, 4)), rng.normal(size=(1, 4))], 1e-5),
    "neg": lambda rng: (
        lambda a: ((-a) * (-a) + (-a)).sum(),
        [rng.normal(size=(2, 3))], 1e-5),
    "mul": lambda rng: (
        lambda a, b: (a * b * a).sum(),
        [rng.normal(size=(4,)), rng.normal(size=(4,))], 1e-5),
    "div": lambda rng: (
        lambda a, b: (a / b).sum(),
        [rng.normal(size=(3, 2)), 0.5 + np.abs(rng.normal(size=(3, 2)))],
        1e-5),
    "pow": lambda rng: (
        lambda a: (a ** 3.0).sum(),
        [rng.normal(size=(5,))], 1e-4),
    "matmul": lambda rng: (
        lambda a, b: ((a @ b) * (a @ b)).sum(),
        [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))], 1e-5),
    "transpose": lambda rng: (
        lambda a: (a.T @ a).sum(),
        [rng.normal(size=(3, 2))], 1e-5),
    "reshape": lambda rng: (
        lambda a: (a.reshape(2, 6) * a.reshape(2, 6)).sum(),
        [rng.normal(size=(3, 4))], 1e-5),
    "getitem": lambda rng: (
        lambda a: (a[1:3, ::2] * a[1:3, ::2]).sum(),
        [rng.normal(size=(4, 5))], 1e-5),
    "sum": lambda rng: (
        lambda a: (a.sum(axis=1, keepdims=True) * a).sum(),
        [rng.normal(size=(3, 4))], 1e-5),
    "max": lambda rng: (
        lambda a: (a.max(axis=1) * a.max(axis=1)).sum(),
        # Well-separated entries so the argmax never flips under eps.
        [np.arange(12.0).reshape(3, 4) + _rng().normal(size=(3, 4)) * 0.1],
        1e-5),
    "relu": lambda rng: (
        lambda a: (a.relu() * a).sum(),
        [_away_from(rng.normal(size=(4, 3)), [0.0], 1e-3)], 1e-5),
    "sigmoid": lambda rng: (
        lambda a: a.sigmoid().sum(),
        [rng.normal(size=(3, 3))], 1e-5),
    "tanh": lambda rng: (
        lambda a: (a.tanh() * a).sum(),
        [rng.normal(size=(6,))], 1e-5),
    "exp": lambda rng: (
        lambda a: a.exp().sum(),
        [rng.normal(size=(2, 4))], 1e-4),
    "log": lambda rng: (
        lambda a: a.log().sum(),
        [0.5 + np.abs(rng.normal(size=(3, 3)))], 1e-5),
    "sqrt": lambda rng: (
        lambda a: a.sqrt().sum(),
        [0.5 + np.abs(rng.normal(size=(5,)))], 1e-5),
    "abs": lambda rng: (
        lambda a: (a.abs() * a.abs()).sum(),
        [_away_from(rng.normal(size=(4,)), [0.0], 1e-3)], 1e-5),
    "clip": lambda rng: (
        lambda a: (a.clip(-1.0, 1.0) * a.clip(-1.0, 1.0)).sum(),
        [_away_from(rng.normal(size=(3, 4)), [-1.0, 1.0], 1e-3)], 1e-5),
    "concatenate": lambda rng: (
        lambda a, b: (F.concatenate([a, b], axis=1)
                      * F.concatenate([a, b], axis=1)).sum(),
        [rng.normal(size=(3, 2)), rng.normal(size=(3, 4))], 1e-5),
    "stack": lambda rng: (
        lambda a, b: (F.stack([a, b], axis=0)
                      * F.stack([a, b], axis=0)).sum(),
        [rng.normal(size=(2, 3)), rng.normal(size=(2, 3))], 1e-5),
}


def test_every_primitive_has_a_case():
    assert set(PRIMITIVES) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_primitive_gradcheck(name):
    make_loss, arrays, atol = CASES[name](_rng())
    assert_gradcheck(make_loss, *arrays, atol=atol)

