"""Divergence guards: rollback, lr backoff, bounded retries, early stop."""

import numpy as np
import pytest

import repro.models.poshgnn.trainer as trainer_module
from repro.models import POSHGNN
from repro.models.poshgnn.loss import POSHGNNLoss
from repro.models.poshgnn.trainer import POSHGNNTrainer
from repro.training import (
    DivergenceGuard,
    GuardConfig,
    NonFiniteSignal,
    TrainingDiverged,
)


class _PoisonedLoss(POSHGNNLoss):
    """Returns NaN losses for a configurable set of step_loss calls."""

    poison_calls: set = set()
    calls = 0

    def step_loss(self, *args, **kwargs):
        loss = super().step_loss(*args, **kwargs)
        type(self).calls += 1
        if type(self).calls in self.poison_calls:
            loss = loss * float("nan")
        return loss


@pytest.fixture
def poison(monkeypatch):
    """Patch the trainer's loss with the poisonable variant."""
    _PoisonedLoss.calls = 0
    _PoisonedLoss.poison_calls = set()
    monkeypatch.setattr(trainer_module, "POSHGNNLoss", _PoisonedLoss)
    return _PoisonedLoss


def test_nan_window_rolls_back_and_backs_off(problems, poison):
    poison.poison_calls = {8}  # one window in epoch 0
    model = POSHGNN(seed=0)
    trainer = POSHGNNTrainer(
        model, epochs=4, guard=GuardConfig(max_retries=3, lr_backoff=0.5))
    result = trainer.train(problems)

    events = result["guard_events"]
    assert [event["type"] for event in events] == ["nonfinite_loss"]
    assert events[0]["epoch"] == 0
    assert events[0]["lr_before"] == pytest.approx(0.01)
    assert events[0]["lr_after"] == pytest.approx(0.005)
    assert trainer.optimizer.lr == pytest.approx(0.005)
    # the run recovered: all four epochs trained, model is finite
    assert len(result["loss"]) == 4
    assert all(np.isfinite(value) for value in result["loss"])
    assert all(np.isfinite(param.data).all()
               for param in model.parameters())


def test_nan_grad_norm_detected(problems, monkeypatch):
    calls = {"n": 0}
    from repro.nn import clip_grad_norm as real_clip

    def poisoned_clip(parameters, max_norm):
        parameters = list(parameters)
        calls["n"] += 1
        if calls["n"] == 1:
            for param in parameters:
                if param.grad is not None:
                    param.grad = param.grad * float("nan")
        return real_clip(parameters, max_norm)

    monkeypatch.setattr(trainer_module, "clip_grad_norm", poisoned_clip)
    model = POSHGNN(seed=0)
    trainer = POSHGNNTrainer(model, epochs=2)
    result = trainer.train(problems)
    assert result["guard_events"][0]["type"] == "nonfinite_grad_norm"
    assert all(np.isfinite(param.data).all()
               for param in model.parameters())


def test_persistent_nan_raises_bounded(problems, poison):
    poison.poison_calls = set(range(1, 100_000))  # every window
    model = POSHGNN(seed=0)
    before = model.state_dict()
    trainer = POSHGNNTrainer(model, epochs=4,
                             guard=GuardConfig(max_retries=2))
    with pytest.raises(TrainingDiverged):
        trainer.train(problems)
    # max_retries + 1 attempts, then the model is left at its last good
    # (here: initial) state, never the poisoned one.
    after = model.state_dict()
    for name in before:
        assert np.array_equal(before[name], after[name])


def test_retry_budget_resets_after_success(problems, poison):
    # one poisoned window in epoch 0 and one much later: each gets its
    # own retry budget because a finite epoch resets the counter.
    poison.poison_calls = {8, 50}
    model = POSHGNN(seed=0)
    trainer = POSHGNNTrainer(model, epochs=4,
                             guard=GuardConfig(max_retries=1))
    result = trainer.train(problems)
    assert len(result["loss"]) == 4
    retries = [event["retry"] for event in result["guard_events"]]
    assert retries == [1, 1]


def test_min_lr_floor(problems, poison):
    poison.poison_calls = set(range(1, 100_000))
    model = POSHGNN(seed=0)
    trainer = POSHGNNTrainer(
        model, epochs=2,
        guard=GuardConfig(max_retries=5, lr_backoff=0.1, min_lr=1e-4))
    with pytest.raises(TrainingDiverged):
        trainer.train(problems)
    assert trainer.optimizer.lr == pytest.approx(1e-4)


def test_early_stopping_on_stagnant_best(problems, monkeypatch):
    # force a flat loss history so the best never improves after epoch 0
    flat = iter([5.0] + [6.0] * 50)

    model = POSHGNN(seed=0)
    trainer = POSHGNNTrainer(model, epochs=30,
                             guard=GuardConfig(patience=3))
    original = trainer.train_episode

    def flat_episode(problem, guard, epoch):
        original(problem, guard, epoch)
        return next(flat)

    monkeypatch.setattr(trainer, "train_episode", flat_episode)
    result = trainer.train(problems[:1])
    assert result["early_stopped"]
    assert len(result["loss"]) == 4  # 1 best + 3 patience
    assert result["guard_events"][-1]["type"] == "early_stop"


def test_guard_unit_behaviour():
    guard = DivergenceGuard(GuardConfig(max_retries=1, lr_backoff=0.5))
    guard.check_loss(1.0, epoch=0)  # finite: no-op
    with pytest.raises(NonFiniteSignal):
        guard.check_loss(float("nan"), epoch=0)
    with pytest.raises(NonFiniteSignal):
        guard.check_grad_norm(float("inf"), epoch=2)
    signal = NonFiniteSignal("loss", float("nan"), 0)
    assert guard.on_nonfinite(signal, 0.01) == pytest.approx(0.005)
    with pytest.raises(TrainingDiverged):
        guard.on_nonfinite(signal, 0.005)


def test_guard_config_validation():
    with pytest.raises(ValueError):
        GuardConfig(lr_backoff=1.5)
    with pytest.raises(ValueError):
        GuardConfig(max_retries=-1)
    with pytest.raises(ValueError):
        GuardConfig(patience=0)
