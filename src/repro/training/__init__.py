"""``repro.training`` — fault-tolerant training runtime.

Checkpoint/resume, divergence guards and run manifests for the gradient
trainers (see docs/TRAINING.md):

* :class:`TrainerCheckpoint` / :class:`CheckpointManager` — versioned,
  atomically-written ``.npz`` checkpoints with last-k + best retention
  in one flat run directory.
* :class:`DivergenceGuard` / :class:`GuardConfig` — non-finite loss and
  gradient detection with rollback, lr backoff and early stopping;
  :class:`TrainingDiverged` when the retry budget runs out.
* :class:`RunManifest` — per-run metrics/provenance JSON written next to
  the checkpoints and by the bench drivers.
* :class:`TrainingEngine` — the fault-tolerant epoch loop, owning the
  model, its Adam optimiser, the shuffling RNG and the resolved alpha;
  ``POSHGNNTrainer`` (POSHGNN and the recurrent baselines) is its one
  subclass.  :func:`run_restarts` / :func:`load_fit` run and restore
  the shared multi-restart fit protocol.
"""

from .checkpoint import CHECKPOINT_VERSION, CheckpointManager, TrainerCheckpoint
from .engine import RestartAttempt, TrainingEngine, load_fit, run_restarts
from .guards import DivergenceGuard, GuardConfig, NonFiniteSignal, TrainingDiverged
from .manifest import (
    MANIFEST_SCHEMA_VERSION,
    MANIFEST_VERSION,
    RunManifest,
    write_json_atomic,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointManager",
    "TrainerCheckpoint",
    "TrainingEngine",
    "RestartAttempt",
    "run_restarts",
    "load_fit",
    "DivergenceGuard",
    "GuardConfig",
    "NonFiniteSignal",
    "TrainingDiverged",
    "MANIFEST_SCHEMA_VERSION",
    "MANIFEST_VERSION",
    "RunManifest",
    "write_json_atomic",
]
