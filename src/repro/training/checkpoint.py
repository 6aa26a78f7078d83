"""Versioned training checkpoints with atomic writes and retention.

A :class:`TrainerCheckpoint` bundles everything a truncated-BPTT run
needs to restart bit-identically: model parameters, full optimiser state
(Adam moments / SGD velocity, step count, live learning rate), the
epoch cursor, loss history, best-so-far snapshot, the resolved loss
alpha, the trainer's RNG state and accumulated guard events.

On disk a checkpoint is a single ``.npz`` archive — inspectable with
numpy alone, like :func:`repro.nn.save_module` — whose arrays live under
``model/``, ``best/`` and ``optim/`` prefixes plus one ``meta`` entry
holding a JSON document (version, cursors, history, RNG state).  Writes
go through :func:`repro.nn.serialization.atomic_savez`, so a crash
mid-save never corrupts the previous checkpoint.

:class:`CheckpointManager` layers cadence and retention on one flat run
directory: save every ``save_every`` epochs, keep the last
``keep_last`` epoch archives plus ``best.npz``, with the run's
``manifest.json`` beside them.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field

import numpy as np

from ..nn.serialization import (
    atomic_savez,
    flatten_state,
    normalize_npz_path,
    unflatten_state,
)
from .manifest import RunManifest

__all__ = ["CHECKPOINT_VERSION", "TrainerCheckpoint", "CheckpointManager"]

CHECKPOINT_VERSION = 1

_EPOCH_FILE = re.compile(r"^ckpt-(\d+)\.npz$")


@dataclass
class TrainerCheckpoint:
    """Full-fidelity snapshot of a training run at an epoch boundary."""

    model_state: dict
    optimizer_state: dict
    epoch: int
    history: list = field(default_factory=list)
    best_loss: float = float("inf")
    best_state: dict | None = None
    alpha: float | None = None
    rng_state: dict | None = None
    guard_events: list = field(default_factory=list)
    version: int = CHECKPOINT_VERSION

    # ------------------------------------------------------------------
    def to_arrays(self) -> dict:
        """Flatten into the ``{npz entry: array}`` archive layout."""
        meta = {
            "version": self.version,
            "epoch": int(self.epoch),
            "history": [float(value) for value in self.history],
            "best_loss": float(self.best_loss),
            "alpha": None if self.alpha is None else float(self.alpha),
            "rng_state": self.rng_state,
            "guard_events": self.guard_events,
            "has_best": self.best_state is not None,
        }
        arrays = {"meta": np.array(json.dumps(meta))}
        for name, value in self.model_state.items():
            arrays[f"model/{name}"] = np.asarray(value)
        if self.best_state is not None:
            for name, value in self.best_state.items():
                arrays[f"best/{name}"] = np.asarray(value)
        for path_key, value in flatten_state(self.optimizer_state).items():
            arrays[f"optim/{path_key}"] = value
        return arrays

    def save(self, path: str | os.PathLike) -> str:
        """Atomically write this checkpoint; returns the final path."""
        return atomic_savez(path, **self.to_arrays())

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: str | os.PathLike) -> "TrainerCheckpoint":
        """Read a checkpoint written by :meth:`save`."""
        source = normalize_npz_path(path)
        with np.load(source) as archive:
            arrays = {key: archive[key] for key in archive.files}
        if "meta" not in arrays:
            raise ValueError(f"{source!r} is not a trainer checkpoint "
                             f"(no meta entry)")
        meta = json.loads(str(arrays["meta"]))
        version = meta.get("version", 0)
        if version > CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint {source!r} has format version {version}; "
                f"this build reads up to {CHECKPOINT_VERSION}")
        model_state: dict = {}
        best_state: dict = {}
        optim_flat: dict = {}
        for key, value in arrays.items():
            if key.startswith("model/"):
                model_state[key[len("model/"):]] = value
            elif key.startswith("best/"):
                best_state[key[len("best/"):]] = value
            elif key.startswith("optim/"):
                optim_flat[key[len("optim/"):]] = value
        return cls(
            model_state=model_state,
            optimizer_state=unflatten_state(optim_flat),
            epoch=int(meta["epoch"]),
            history=[float(value) for value in meta["history"]],
            best_loss=float(meta["best_loss"]),
            best_state=best_state if meta.get("has_best") else None,
            alpha=meta.get("alpha"),
            rng_state=meta.get("rng_state"),
            guard_events=list(meta.get("guard_events", [])),
            version=version,
        )


class CheckpointManager:
    """Cadence + retention policy over epoch-numbered checkpoints.

    Archives are named ``ckpt-<epoch>.npz`` inside ``directory`` (created
    if missing); the last ``keep_last`` are retained, plus ``best.npz``.
    ``manifest.json`` (written by the training engine) lives alongside
    and is never pruned.
    """

    def __init__(self, directory: str | os.PathLike, save_every: int = 1,
                 keep_last: int = 3):
        if save_every < 1:
            raise ValueError("save_every must be positive")
        if keep_last < 1:
            raise ValueError("keep_last must be positive")
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.save_every = save_every
        self.keep_last = keep_last

    # ------------------------------------------------------------------
    def epoch_path(self, epoch: int) -> str:
        """Path of the checkpoint after ``epoch`` epochs."""
        return os.path.join(self.directory, f"ckpt-{epoch:05d}.npz")

    @property
    def best_path(self) -> str:
        """Path of the best-so-far checkpoint (``best.npz``)."""
        return os.path.join(self.directory, "best.npz")

    @property
    def manifest_path(self) -> str:
        """Path of the run manifest kept next to the checkpoints."""
        return os.path.join(self.directory, "manifest.json")

    def due(self, epoch: int, final: bool = False) -> bool:
        """Whether the cadence calls for a save after ``epoch`` epochs."""
        return final or epoch % self.save_every == 0

    # ------------------------------------------------------------------
    def save(self, checkpoint: TrainerCheckpoint,
             is_best: bool = False) -> str:
        """Write ``checkpoint`` for its epoch, prune, update best."""
        arrays = checkpoint.to_arrays()
        path = atomic_savez(self.epoch_path(checkpoint.epoch), **arrays)
        if is_best:
            atomic_savez(self.best_path, **arrays)
        self.prune()
        return path

    def prune(self) -> list:
        """Delete epoch archives beyond ``keep_last``; returns their paths."""
        removed = []
        for _epoch, path in self.epoch_checkpoints()[:-self.keep_last]:
            os.unlink(path)
            removed.append(path)
        return removed

    def epoch_checkpoints(self) -> list:
        """``(epoch, path)`` pairs in the directory, oldest first."""
        found = []
        for name in os.listdir(self.directory):
            match = _EPOCH_FILE.match(name)
            if match:
                found.append((int(match.group(1)),
                              os.path.join(self.directory, name)))
        return sorted(found)

    def latest_path(self) -> str | None:
        """Path of the newest epoch checkpoint, or None when empty."""
        found = self.epoch_checkpoints()
        return found[-1][1] if found else None

    def write_manifest(self, manifest: RunManifest) -> str:
        """Write the run manifest atomically; returns its path."""
        return manifest.write(self.manifest_path)

    @staticmethod
    def resolve(path: str | os.PathLike) -> str:
        """Resolve a checkpoint argument: a file, or a run directory.

        Directories resolve to their newest epoch checkpoint, so
        ``resume_from=<checkpoint_dir>`` continues from wherever a killed
        run got to.
        """
        path = os.fspath(path)
        if os.path.isdir(path):
            latest = CheckpointManager(path).latest_path()
            if latest is None:
                raise FileNotFoundError(
                    f"no ckpt-*.npz checkpoints in directory {path!r}")
            return latest
        return normalize_npz_path(path)
