"""Batched multi-room BPTT: grouping, parity and kill-and-resume.

The stacked path changes *scheduling* (one optimiser step per chunk per
window) but nothing numeric at lr=0; ``test_batched_golden.py`` pins its
trained bytes.
"""

import numpy as np
import pytest

from repro.core import AfterProblem
from repro.datasets import RoomConfig, generate_timik_room
from repro.models import DCRNNRecommender, POSHGNN, TGCNRecommender
from repro.models.poshgnn.trainer import POSHGNNTrainer
from repro.training import TrainableSpec, TrainingEngine


def _assert_states_equal(left: dict, right: dict):
    assert set(left) == set(right)
    for name in left:
        np.testing.assert_array_equal(left[name], right[name], err_msg=name)


# ----------------------------------------------------------------------
# Chunk grouping
# ----------------------------------------------------------------------
class _Sized:
    def __init__(self, num_users, horizon):
        self.num_users = num_users
        self.horizon = horizon


class _NullSpec(TrainableSpec):
    supports_batch = True


def _chunks(problems, order, batch_rooms):
    engine = TrainingEngine(_NullSpec(), epochs=1, batch_rooms=batch_rooms)
    return engine._batch_chunks(problems, order)


class TestBatchChunks:
    def test_stable_partition_in_first_occurrence_order(self):
        problems = [_Sized(12, 5), _Sized(8, 5), _Sized(12, 5),
                    _Sized(8, 5), _Sized(12, 5)]
        chunks = _chunks(problems, [0, 1, 2, 3, 4], batch_rooms=4)
        assert chunks == [[0, 2, 4], [1, 3]]

    def test_respects_shuffled_order_within_groups(self):
        problems = [_Sized(12, 5)] * 4
        assert _chunks(problems, [2, 0, 3, 1], batch_rooms=4) == [[2, 0, 3, 1]]

    def test_chunks_bounded_by_batch_rooms(self):
        problems = [_Sized(12, 5)] * 5
        chunks = _chunks(problems, [0, 1, 2, 3, 4], batch_rooms=2)
        assert chunks == [[0, 1], [2, 3], [4]]

    def test_horizon_splits_groups(self):
        problems = [_Sized(12, 5), _Sized(12, 7), _Sized(12, 5)]
        assert _chunks(problems, [0, 1, 2], batch_rooms=4) == [[0, 2], [1]]

    def test_batch_rooms_of_one_stays_serial(self):
        engine = TrainingEngine(_NullSpec(), epochs=1, batch_rooms=1)
        assert not engine._use_batch()

    def test_engine_rejects_nonpositive_batch_rooms(self):
        with pytest.raises(ValueError, match="batch_rooms"):
            TrainingEngine(_NullSpec(), epochs=1, batch_rooms=0)


# ----------------------------------------------------------------------
# POSHGNN parity
# ----------------------------------------------------------------------
class TestPOSHGNNBatchedParity:
    def test_lr0_epoch_losses_match_serial(self, problems):
        """At lr=0 the stacked path computes the same losses as the
        serial loop up to float summation reordering (docs/TRAINING.md:
        minibatching changes grouping, not the math)."""
        serial = POSHGNNTrainer(POSHGNN(seed=0), lr=0.0, epochs=2).train(
            problems)
        batched = POSHGNNTrainer(POSHGNN(seed=0), lr=0.0, epochs=2,
                                 batch_rooms=2).train(problems)
        np.testing.assert_allclose(serial["loss"], batched["loss"],
                                   rtol=1e-12)

    def test_mixed_room_sizes_train_in_separate_chunks(self, problems):
        other_room = generate_timik_room(
            RoomConfig(num_users=8, num_steps=6), seed=5)
        mixed = list(problems) + [AfterProblem(other_room, 0)]
        model = POSHGNN(seed=0)
        result = POSHGNNTrainer(model, epochs=2, batch_rooms=4).train(mixed)
        assert len(result["loss"]) == 2
        assert all(np.isfinite(value) for value in result["loss"])


# ----------------------------------------------------------------------
# Kill-and-resume on the batched path
# ----------------------------------------------------------------------
class TestBatchedResume:
    @pytest.mark.parametrize("shuffle", [False, True])
    def test_interrupt_resume_bit_identical(self, problems, tmp_path,
                                            shuffle):
        kwargs = dict(epochs=6, batch_rooms=2, shuffle=shuffle, seed=3)
        model_a = POSHGNN(seed=0)
        result_a = POSHGNNTrainer(model_a, **kwargs).train(problems)

        directory = tmp_path / "ckpts"
        model_b = POSHGNN(seed=0)
        POSHGNNTrainer(model_b, epochs=3, batch_rooms=2, shuffle=shuffle,
                       seed=3, checkpoint_dir=str(directory)).train(problems)

        model_c = POSHGNN(seed=0)
        result_c = POSHGNNTrainer(model_c, **kwargs).train(
            problems, resume_from=str(directory))
        assert result_a["loss"] == result_c["loss"]
        assert result_a["best_loss"] == result_c["best_loss"]
        _assert_states_equal(model_a.state_dict(), model_c.state_dict())


# ----------------------------------------------------------------------
# Recurrent baselines on the batched path
# ----------------------------------------------------------------------
class TestRecurrentBatched:
    @pytest.mark.parametrize("cls", [DCRNNRecommender, TGCNRecommender])
    def test_lr0_fit_matches_serial(self, cls, problems):
        serial = cls(seed=0).fit(problems, epochs=2, restarts=1, lr=0.0)
        batched = cls(seed=0).fit(problems, epochs=2, restarts=1, lr=0.0,
                                  batch_rooms=2)
        np.testing.assert_allclose(serial["loss"], batched["loss"],
                                   rtol=1e-12)

    def test_dcrnn_batched_kill_and_resume(self, problems, tmp_path):
        """The ISSUE smoke: kill a batched DCRNN fit mid-run, resume,
        land bit-identical with the uninterrupted batched run."""
        kwargs = dict(epochs=4, restarts=1, batch_rooms=2, save_every=1)
        gold = DCRNNRecommender(seed=0)
        result_a = gold.fit(problems, run_dir=str(tmp_path / "gold"),
                            **kwargs)

        class _Kill(Exception):
            pass

        killed = DCRNNRecommender(seed=0)
        seen = []

        def kill(engine, epoch, history):
            seen.append(epoch)
            if len(seen) == 2:
                raise _Kill

        run_dir = str(tmp_path / "run")
        with pytest.raises(_Kill):
            killed.fit(problems, run_dir=run_dir, on_epoch_end=kill,
                       **kwargs)

        resumed = DCRNNRecommender(seed=0)
        result_c = resumed.fit(problems, run_dir=run_dir, resume_from=run_dir,
                               **kwargs)
        assert result_a["loss"] == result_c["loss"]
        assert result_a["train_utility"] == result_c["train_utility"]
        _assert_states_equal(
            {name: p.data for name, p in gold.named_parameters()},
            {name: p.data for name, p in resumed.named_parameters()})
