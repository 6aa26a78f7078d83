"""A tiny perf-harness run must not touch the committed full-scale records.

Each ``benchmarks/perf_*.py`` harness writes its ``BENCH_*.json`` record
at the repo root only at full scale; under ``REPRO_PERF_TINY=1`` the
record goes to the run directory (``REPRO_RUN_DIR``) instead.  A record
names run artifacts relative to the run directory, never by an absolute
path.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

HARNESSES = [
    ("perf_eval_engine.py", "BENCH_eval_engine.json"),
    ("perf_serving.py", "BENCH_serving.json"),
    ("perf_training.py", "BENCH_training.json"),
]


@pytest.mark.parametrize("script, record", HARNESSES)
def test_tiny_run_leaves_root_record_unchanged(tmp_path, script, record):
    committed = ROOT / record
    before = committed.read_bytes() if committed.exists() else None
    env = dict(os.environ, REPRO_PERF_TINY="1", REPRO_RUN_DIR=str(tmp_path),
               PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / script)], cwd=ROOT,
        env=env, capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    after = committed.read_bytes() if committed.exists() else None
    assert after == before
    assert (tmp_path / record).exists()
    document = json.loads((tmp_path / record).read_text())
    absolute = [text for text in _strings(document) if os.path.isabs(text)]
    assert absolute == []


def _strings(node):
    """Every string key and value in a JSON document."""
    if isinstance(node, str):
        yield node
    elif isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from _strings(value)
    elif isinstance(node, list):
        for value in node:
            yield from _strings(value)
