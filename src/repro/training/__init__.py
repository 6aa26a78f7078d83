"""``repro.training`` — fault-tolerant training runtime.

Checkpoint/resume, divergence guards and run manifests for the gradient
trainers (see docs/TRAINING.md):

* :class:`TrainerCheckpoint` / :class:`CheckpointManager` — versioned,
  atomically-written ``.npz`` checkpoints with last-k + best retention.
* :class:`DivergenceGuard` / :class:`GuardConfig` — non-finite loss and
  gradient detection with rollback, lr backoff and early stopping;
  :class:`TrainingDiverged` when the retry budget runs out.
* :class:`RunManifest` — per-run metrics/provenance JSON written next to
  the checkpoints and by the bench drivers.
* :class:`TrainingEngine` / :class:`TrainableSpec` — the unified
  fault-tolerant epoch loop every gradient trainer (POSHGNN and the
  recurrent baselines) runs on, plus :func:`run_restarts` /
  :func:`load_fit` for the shared multi-restart fit protocol.
* :class:`CheckpointStore` backends — pluggable checkpoint storage
  (local directory, in-memory, sharded fan-out).
"""

from .checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointManager,
    TrainerCheckpoint,
    open_directory_store,
)
from .engine import (
    RestartAttempt,
    TrainableSpec,
    TrainingEngine,
    load_fit,
    run_restarts,
)
from .guards import DivergenceGuard, GuardConfig, NonFiniteSignal, TrainingDiverged
from .manifest import (
    MANIFEST_SCHEMA_VERSION,
    MANIFEST_VERSION,
    RunManifest,
    write_json_atomic,
)
from .storage import (
    CheckpointStore,
    InMemoryStore,
    LocalDirectoryStore,
    ShardedDirectoryStore,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointManager",
    "TrainerCheckpoint",
    "open_directory_store",
    "TrainableSpec",
    "TrainingEngine",
    "RestartAttempt",
    "run_restarts",
    "load_fit",
    "CheckpointStore",
    "LocalDirectoryStore",
    "InMemoryStore",
    "ShardedDirectoryStore",
    "DivergenceGuard",
    "GuardConfig",
    "NonFiniteSignal",
    "TrainingDiverged",
    "MANIFEST_SCHEMA_VERSION",
    "MANIFEST_VERSION",
    "RunManifest",
    "write_json_atomic",
]
