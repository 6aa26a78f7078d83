"""Checkpoint format: round-trip fidelity, versioning, atomicity, retention."""

import json
import os

import numpy as np
import pytest

from repro.nn import MLP, Adam
from repro.training import (
    CHECKPOINT_VERSION,
    CheckpointManager,
    RunManifest,
    TrainerCheckpoint,
)


def _small_checkpoint(epoch=3, with_best=True):
    rng = np.random.default_rng(0)
    model = MLP([3, 4, 2], rng)
    optimizer = Adam(model.parameters(), lr=0.02)
    for param in model.parameters():
        param.grad = rng.normal(size=param.data.shape)
    optimizer.step()
    return TrainerCheckpoint(
        model_state=model.state_dict(),
        optimizer_state=optimizer.state_dict(),
        epoch=epoch,
        history=[3.0, 2.5, 2.25],
        best_loss=2.25,
        best_state=model.state_dict() if with_best else None,
        alpha=0.04,
        rng_state=np.random.default_rng(7).bit_generator.state,
        guard_events=[{"type": "nonfinite_loss", "epoch": 1,
                       "retry": 1}],
    )


class TestTrainerCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        checkpoint = _small_checkpoint()
        path = checkpoint.save(tmp_path / "ckpt")
        loaded = TrainerCheckpoint.load(path)

        assert loaded.version == CHECKPOINT_VERSION
        assert loaded.epoch == checkpoint.epoch
        assert loaded.history == checkpoint.history
        assert loaded.best_loss == checkpoint.best_loss
        assert loaded.alpha == checkpoint.alpha
        assert loaded.rng_state == checkpoint.rng_state
        assert loaded.guard_events == checkpoint.guard_events
        for name, value in checkpoint.model_state.items():
            assert np.array_equal(loaded.model_state[name], value)
        for name, value in checkpoint.best_state.items():
            assert np.array_equal(loaded.best_state[name], value)

    def test_optimizer_state_round_trip_adam(self, tmp_path):
        checkpoint = _small_checkpoint()
        loaded = TrainerCheckpoint.load(checkpoint.save(tmp_path / "c.npz"))
        restored = loaded.optimizer_state
        original = checkpoint.optimizer_state
        assert restored["hyper"]["_step_count"] == 1
        assert restored["hyper"]["lr"] == original["hyper"]["lr"]
        for key in ("m", "v"):
            assert len(restored["slots"][key]) == len(original["slots"][key])
            for a, b in zip(restored["slots"][key], original["slots"][key]):
                assert np.array_equal(a, b)

    def test_no_best_state(self, tmp_path):
        checkpoint = _small_checkpoint(with_best=False)
        loaded = TrainerCheckpoint.load(checkpoint.save(tmp_path / "c"))
        assert loaded.best_state is None

    def test_suffix_optional_on_load(self, tmp_path):
        checkpoint = _small_checkpoint()
        checkpoint.save(tmp_path / "ckpt")
        loaded = TrainerCheckpoint.load(tmp_path / "ckpt")
        assert loaded.epoch == checkpoint.epoch

    def test_newer_version_rejected(self, tmp_path):
        checkpoint = _small_checkpoint()
        checkpoint.version = CHECKPOINT_VERSION + 1
        path = checkpoint.save(tmp_path / "future")
        with pytest.raises(ValueError, match="version"):
            TrainerCheckpoint.load(path)

    def test_non_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "plain.npz"
        np.savez(path, weights=np.ones(3))
        with pytest.raises(ValueError, match="meta"):
            TrainerCheckpoint.load(path)

    def test_atomic_write_leaves_no_temporaries(self, tmp_path):
        checkpoint = _small_checkpoint()
        checkpoint.save(tmp_path / "a")
        checkpoint.save(tmp_path / "a")  # overwrite in place
        leftovers = [name for name in os.listdir(tmp_path)
                     if name.startswith(".tmp-")]
        assert leftovers == []
        assert sorted(os.listdir(tmp_path)) == ["a.npz"]


class TestCheckpointManager:
    def _save_epochs(self, manager, epochs, best_at=()):
        for epoch in epochs:
            checkpoint = _small_checkpoint(epoch=epoch)
            manager.save(checkpoint, is_best=epoch in best_at)

    def test_retention_keeps_last_k_plus_best(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep_last=2)
        self._save_epochs(manager, [1, 2, 3, 4, 5], best_at=(2,))
        kept = sorted(os.listdir(tmp_path))
        assert kept == ["best.npz", "ckpt-00004.npz", "ckpt-00005.npz"]
        assert TrainerCheckpoint.load(manager.best_path).epoch == 2

    def test_latest_path_and_resolve_directory(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep_last=3)
        assert manager.latest_path() is None
        self._save_epochs(manager, [1, 2, 3])
        latest = manager.latest_path()
        assert latest.endswith("ckpt-00003.npz")
        assert CheckpointManager.resolve(tmp_path) == latest

    def test_resolve_empty_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CheckpointManager.resolve(tmp_path)

    def test_cadence(self, tmp_path):
        manager = CheckpointManager(tmp_path, save_every=3)
        assert not manager.due(1)
        assert not manager.due(2)
        assert manager.due(3)
        assert manager.due(2, final=True)

    def test_invalid_config(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, save_every=0)
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, keep_last=0)


class TestRunDirectory:
    """The flat run directory a checkpointed training run writes."""

    def test_writes_leave_no_temporaries(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep_last=2)
        for epoch in (1, 2, 3):
            manager.save(_small_checkpoint(epoch=epoch), is_best=True)
            manager.write_manifest(RunManifest(kind="poshgnn-train",
                                               epochs_run=epoch))
        assert [name for name in os.listdir(tmp_path)
                if name.startswith(".tmp-")] == []
        assert RunManifest.load(manager.manifest_path).epochs_run == 3

    def test_prune_keeps_last_k_plus_best(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep_last=2)
        for epoch in (1, 2, 3):
            manager.save(_small_checkpoint(epoch=epoch), is_best=True)
        assert [epoch for epoch, _ in manager.epoch_checkpoints()] == [2, 3]
        assert sorted(os.listdir(tmp_path)) == [
            "best.npz", "ckpt-00002.npz", "ckpt-00003.npz"]
        assert manager.latest_path() == manager.epoch_path(3)
        assert TrainerCheckpoint.load(manager.best_path).epoch == 3

    def test_resolve_without_epoch_archives_raises(self, tmp_path):
        """``best.npz`` and the manifest alone are nothing to resume."""
        manager = CheckpointManager(tmp_path)
        _small_checkpoint().save(manager.best_path)
        manager.write_manifest(RunManifest(kind="poshgnn-train"))
        with pytest.raises(FileNotFoundError):
            CheckpointManager.resolve(tmp_path)


class TestRunManifest:
    def test_write_and_load(self, tmp_path):
        manifest = RunManifest(kind="poshgnn-train",
                               config={"lr": 0.01},
                               history=[2.0, 1.0],
                               best_loss=1.0, best_epoch=1, epochs_run=2,
                               guard_events=[{"type": "early_stop"}])
        path = manifest.write(tmp_path / "manifest.json")
        loaded = RunManifest.load(path)
        assert loaded == manifest
        # and it is plain JSON on disk
        with open(path) as handle:
            assert json.load(handle)["kind"] == "poshgnn-train"

    def test_newer_version_rejected(self, tmp_path):
        manifest = RunManifest(kind="x")
        manifest.schema_version += 1
        path = manifest.write(tmp_path / "m.json")
        with pytest.raises(ValueError, match="version"):
            RunManifest.load(path)

    def test_v1_manifest_loads(self, tmp_path):
        """Pre-observability manifests (``version`` key) still load."""
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"kind": "poshgnn-train",
                                    "history": [1.0], "version": 1}))
        loaded = RunManifest.load(path)
        assert loaded.kind == "poshgnn-train"
        assert loaded.schema_version == 1
        assert loaded.events_path is None
