"""Where the ``benchmarks/perf_*.py`` harnesses write their artifacts.

A full-scale run writes its ``BENCH_*.json`` record at the repo root,
where it is committed.  A tiny run (``REPRO_PERF_TINY=1``) writes its
record under the run directory instead, so it never overwrites the
committed one.  Traces, telemetry series and incident bundles always go
to the run directory, and a record names them relative to it, so a
committed record carries no host's directory layout.
"""

from __future__ import annotations

import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def default_run_dir() -> Path:
    """``REPRO_RUN_DIR`` when set, else the repo's gitignored ``runs/``
    directory — never the repo root."""
    run_dir = os.environ.get("REPRO_RUN_DIR")
    return Path(run_dir) if run_dir else ROOT / "runs"


def result_path(name: str, is_tiny: bool) -> Path:
    """The committed record ``name`` at full scale; the run directory's
    copy for a tiny run."""
    return default_run_dir() / name if is_tiny else ROOT / name


def run_relative(path, run_dir: Path) -> str:
    """``path`` relative to ``run_dir``, with ``/`` separators."""
    return Path(path).resolve().relative_to(
        Path(run_dir).resolve()).as_posix()
