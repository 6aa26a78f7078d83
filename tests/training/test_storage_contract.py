"""One shared contract suite for every CheckpointStore backend.

Local-directory, in-memory and sharded fan-out stores must be
interchangeable under :class:`~repro.training.CheckpointManager` and the
training engine: array archives round-trip bit-identically, JSON
documents round-trip value-identically, ``list``/``exists``/``delete``
reflect exactly the blobs written, and illegal names are rejected the
same way everywhere.  Backend-specific layout guarantees (sharding of
archives, metadata at the root, ``memory://`` locators) are pinned
separately below.
"""

import io
import json
import os
import zipfile

import numpy as np
import pytest

from repro.models.poshgnn import POSHGNN, POSHGNNTrainer
from repro.training import (
    CheckpointManager,
    InMemoryStore,
    LocalDirectoryStore,
    ShardedDirectoryStore,
    TrainerCheckpoint,
    open_directory_store,
)

BACKENDS = ["local", "memory", "sharded"]


def make_store(kind, tmp_path):
    if kind == "local":
        return LocalDirectoryStore(tmp_path / "store")
    if kind == "memory":
        return InMemoryStore()
    return ShardedDirectoryStore(tmp_path / "store", fanout=4)


@pytest.fixture(params=BACKENDS)
def store(request, tmp_path):
    return make_store(request.param, tmp_path)


ARRAYS = {
    "meta": np.array(json.dumps({"epoch": 3})),
    "model/weight": np.arange(6, dtype=np.float64).reshape(2, 3),
    "optim/state/#0/m": np.full(4, 0.25, dtype=np.float32),
}


class TestStoreContract:
    def test_arrays_round_trip_bit_identically(self, store):
        store.write_arrays("ckpt-00003.npz", ARRAYS)
        loaded = store.read_arrays("ckpt-00003.npz")
        assert sorted(loaded) == sorted(ARRAYS)
        for name, value in ARRAYS.items():
            assert loaded[name].dtype == np.asarray(value).dtype
            np.testing.assert_array_equal(loaded[name], value)

    def test_json_round_trips(self, store):
        payload = {"kind": "test", "history": [1.5, 0.5], "extra": None}
        store.write_json("manifest.json", payload)
        assert store.read_json("manifest.json") == payload

    def test_list_and_exists_reflect_writes(self, store):
        assert store.list() == []
        store.write_arrays("ckpt-00001.npz", ARRAYS)
        store.write_json("manifest.json", {})
        assert store.list() == ["ckpt-00001.npz", "manifest.json"]
        assert store.exists("ckpt-00001.npz")
        assert not store.exists("ckpt-00002.npz")

    def test_delete_removes_and_raises_when_missing(self, store):
        store.write_arrays("ckpt-00001.npz", ARRAYS)
        store.delete("ckpt-00001.npz")
        assert store.list() == []
        with pytest.raises(FileNotFoundError):
            store.delete("ckpt-00001.npz")

    def test_overwrite_replaces(self, store):
        store.write_json("manifest.json", {"epoch": 1})
        store.write_json("manifest.json", {"epoch": 2})
        assert store.read_json("manifest.json") == {"epoch": 2}
        assert store.list() == ["manifest.json"]

    @pytest.mark.parametrize("name", ["", ".", "..", "a/b",
                                      os.sep.join(("a", "b"))])
    def test_illegal_names_rejected(self, store, name):
        with pytest.raises(ValueError):
            store.write_json(name, {})
        with pytest.raises(ValueError):
            store.locator(name)

    def test_locators_are_stable_and_distinct(self, store):
        store.write_arrays("ckpt-00001.npz", ARRAYS)
        assert store.locator("ckpt-00001.npz") \
            == store.locator("ckpt-00001.npz")
        assert store.locator("ckpt-00001.npz") != store.locator("best.npz")
        assert store.locator("ckpt-00001.npz").startswith(store.root)

    def test_file_path_contract(self, store):
        store.write_json("manifest.json", {})
        path = store.file_path("manifest.json")
        if isinstance(store, InMemoryStore):
            assert path is None
        else:
            assert os.path.exists(path)

    def test_checkpoint_manager_runs_on_any_backend(self, store):
        manager = CheckpointManager(store, save_every=1, keep_last=2)
        for epoch in (1, 2, 3):
            checkpoint = TrainerCheckpoint(
                model_state={"w": np.full(3, float(epoch))},
                optimizer_state={"step": epoch}, epoch=epoch,
                history=[1.0 / epoch])
            manager.save(checkpoint, is_best=True)
        assert [epoch for epoch, _ in manager.epoch_checkpoints()] == [2, 3]
        loaded, locator = manager.load_latest()
        assert loaded.epoch == 3
        assert locator == manager.epoch_path(3)
        np.testing.assert_array_equal(loaded.model_state["w"],
                                      np.full(3, 3.0))

    def test_load_latest_empty_raises(self, store):
        with pytest.raises(FileNotFoundError):
            CheckpointManager(store).load_latest()


class TestBackendEquivalence:
    def test_archive_entry_bytes_match_across_backends(self, tmp_path):
        """The npz *entries* a backend stores are byte-identical to the
        historical local layout (containers differ only in zip
        timestamps)."""
        digests = []
        for kind in BACKENDS:
            store = make_store(kind, tmp_path / kind)
            store.write_arrays("ckpt-00001.npz", ARRAYS)
            if isinstance(store, InMemoryStore):
                raw = store._blobs["ckpt-00001.npz"]
            else:
                with open(store.file_path("ckpt-00001.npz"), "rb") as fh:
                    raw = fh.read()
            with zipfile.ZipFile(io.BytesIO(raw)) as archive:
                digests.append({name: archive.read(name)
                                for name in sorted(archive.namelist())})
        assert all(digest == digests[0] for digest in digests[1:])


class TestShardedLayout:
    def test_archives_shard_and_metadata_stays_at_root(self, tmp_path):
        store = ShardedDirectoryStore(tmp_path / "run", fanout=4)
        store.write_arrays("ckpt-00001.npz", ARRAYS)
        store.write_json("manifest.json", {})
        shard = store.shard_of("ckpt-00001.npz")
        assert shard is not None
        assert os.path.exists(
            os.path.join(store.root, shard, "ckpt-00001.npz"))
        assert store.shard_of("manifest.json") is None
        assert os.path.exists(os.path.join(store.root, "manifest.json"))
        assert store.list() == ["ckpt-00001.npz", "manifest.json"]

    def test_shard_assignment_is_stable(self, tmp_path):
        a = ShardedDirectoryStore(tmp_path / "a", fanout=8)
        b = ShardedDirectoryStore(tmp_path / "b", fanout=8)
        for name in ("ckpt-00001.npz", "ckpt-00042.npz", "best.npz"):
            assert a.shard_of(name) == b.shard_of(name)

    def test_fanout_validated(self, tmp_path):
        with pytest.raises(ValueError):
            ShardedDirectoryStore(tmp_path, fanout=0)

    def test_open_directory_store_detects_layout(self, tmp_path):
        flat = LocalDirectoryStore(tmp_path / "flat")
        flat.write_arrays("ckpt-00001.npz", ARRAYS)
        sharded = ShardedDirectoryStore(tmp_path / "sharded", fanout=4)
        sharded.write_arrays("ckpt-00001.npz", ARRAYS)
        assert isinstance(open_directory_store(tmp_path / "flat"),
                          LocalDirectoryStore)
        assert isinstance(open_directory_store(tmp_path / "sharded"),
                          ShardedDirectoryStore)


class TestTrainingOnBackends:
    def test_memory_store_kill_and_resume_matches_plain_run(self, problems):
        gold_model = POSHGNN(seed=0)
        gold = POSHGNNTrainer(gold_model, epochs=4, seed=3).train(problems)

        store = InMemoryStore()

        class _Kill(Exception):
            pass

        def kill(trainer, epoch, history):
            if epoch == 2:
                raise _Kill

        with pytest.raises(_Kill):
            POSHGNNTrainer(POSHGNN(seed=0), epochs=4, seed=3,
                           checkpoint_dir=store,
                           on_epoch_end=kill).train(problems)

        model = POSHGNN(seed=0)
        result = POSHGNNTrainer(model, epochs=4, seed=3,
                                checkpoint_dir=store).train(
            problems, resume_from=store)
        assert result["loss"] == gold["loss"]
        assert result["checkpoint_dir"].startswith("memory://")
        assert result["events_path"] is None
        for (name_a, pa), (name_b, pb) in zip(
                gold_model.named_parameters(), model.named_parameters()):
            assert name_a == name_b
            np.testing.assert_array_equal(pa.data, pb.data)
        manifest = store.read_json("manifest.json")
        assert manifest["kind"] == "poshgnn-train"
        assert manifest["schema_version"] == 2

    def test_sharded_store_train_and_resume_from_directory(self, problems,
                                                           tmp_path):
        run_dir = tmp_path / "sharded-run"
        store = ShardedDirectoryStore(run_dir, fanout=4)

        class _Kill(Exception):
            pass

        def kill(trainer, epoch, history):
            if epoch == 2:
                raise _Kill

        with pytest.raises(_Kill):
            POSHGNNTrainer(POSHGNN(seed=0), epochs=4, seed=3,
                           checkpoint_dir=store,
                           on_epoch_end=kill).train(problems)

        # Resume by *path*: resolve() detects the sharded layout.
        model = POSHGNN(seed=0)
        result = POSHGNNTrainer(
            model, epochs=4, seed=3,
            checkpoint_dir=open_directory_store(run_dir)).train(
            problems, resume_from=str(run_dir))

        gold_model = POSHGNN(seed=0)
        gold = POSHGNNTrainer(gold_model, epochs=4, seed=3).train(problems)
        assert result["loss"] == gold["loss"]
        assert os.path.exists(os.path.join(run_dir, "manifest.json"))
        assert os.path.exists(os.path.join(run_dir, "events.jsonl"))
        final = open_directory_store(run_dir).locator("ckpt-00004.npz")
        assert os.sep + "shard-" in final and os.path.exists(final)
