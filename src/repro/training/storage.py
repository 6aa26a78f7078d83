"""Pluggable checkpoint storage backends.

:class:`CheckpointManager` used to be welded to a local directory; this
module splits the *where* from the *what* behind a small
:class:`CheckpointStore` interface over named blobs — ``.npz`` array
archives (checkpoints), JSON documents (manifests) and append-only text
files (event logs).  Three backends ship:

* :class:`LocalDirectoryStore` — one flat directory, byte-identical to
  the historical layout (``ckpt-<epoch>.npz``, ``best.npz``,
  ``manifest.json``, ``events.jsonl`` side by side).
* :class:`InMemoryStore` — blobs held in a process-local dict; used by
  tests and by ephemeral jobs that want guards + retention without
  touching disk.  Locators are ``memory://`` pseudo-paths.
* :class:`ShardedDirectoryStore` — archives fan out into
  ``shard-<k>/`` subdirectories by a stable hash of the blob name, the
  layout multi-node jobs use so thousands of per-attempt checkpoints
  never pile up in one directory; metadata documents (JSON, event logs)
  stay at the root where operators expect them.

All backends share one contract (exercised by
``tests/training/test_storage_contract.py``): array archives round-trip
bit-identically, JSON documents round-trip value-identically, writes
replace atomically, and ``list()`` reflects exactly the blobs written.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import zlib

import numpy as np

from ..nn.serialization import atomic_savez, normalize_npz_path
from .manifest import write_json_atomic

__all__ = [
    "CheckpointStore",
    "LocalDirectoryStore",
    "InMemoryStore",
    "ShardedDirectoryStore",
]


def _normalize_name(name: str) -> str:
    """Validate a blob name (flat namespace, no separators or dotfiles)."""
    if not name or "/" in name or os.sep in name or name.startswith("."):
        raise ValueError(f"illegal blob name {name!r}")
    return name


class CheckpointStore:
    """Named-blob storage a :class:`CheckpointManager` runs on top of.

    Blob names are flat (no directory components); how a backend lays
    them out physically is its own business.  ``locator(name)`` returns
    the backend's stable, human-meaningful address for a blob — a
    filesystem path for directory stores, a ``memory://`` pseudo-path
    for the in-memory store — which is what manifests and result dicts
    record.
    """

    #: Human-readable address of the store itself (directory path or
    #: pseudo-URI); manifests and result dicts record it.
    root: str = ""

    # -- arrays (checkpoint archives) ----------------------------------
    def write_arrays(self, name: str, arrays: dict) -> str:
        """Write an ``.npz`` archive of ``arrays``; returns its locator."""
        raise NotImplementedError

    def read_arrays(self, name: str) -> dict:
        """Read an archive back as ``{entry: ndarray}``."""
        raise NotImplementedError

    # -- JSON documents (manifests) ------------------------------------
    def write_json(self, name: str, payload: dict) -> str:
        """Write ``payload`` as a JSON document; returns its locator."""
        raise NotImplementedError

    def read_json(self, name: str) -> dict:
        """Read a JSON document written by :meth:`write_json`."""
        raise NotImplementedError

    # -- namespace ------------------------------------------------------
    def list(self) -> list:
        """Sorted names of every blob currently in the store."""
        raise NotImplementedError

    def exists(self, name: str) -> bool:
        """Whether a blob of that name is present."""
        return _normalize_name(name) in self.list()

    def delete(self, name: str) -> None:
        """Remove one blob; missing names raise ``FileNotFoundError``."""
        raise NotImplementedError

    def locator(self, name: str) -> str:
        """Stable address of ``name`` (path or pseudo-URI)."""
        raise NotImplementedError

    def file_path(self, name: str) -> str | None:
        """Real filesystem path for ``name``, or ``None`` for backends
        without one (streaming consumers like event logs need a real
        file; they fall back to in-memory buffering when this is None).
        """
        return None


class LocalDirectoryStore(CheckpointStore):
    """Every blob is a file in one directory — the historical layout."""

    def __init__(self, directory: str | os.PathLike):
        self.root = os.fspath(directory)
        os.makedirs(self.root, exist_ok=True)

    def _path(self, name: str) -> str:
        return os.path.join(self.root, _normalize_name(name))

    def write_arrays(self, name: str, arrays: dict) -> str:
        """Atomically write the archive file (write-tmp + rename)."""
        return atomic_savez(self._path(name), **arrays)

    def read_arrays(self, name: str) -> dict:
        """Load the archive file into a plain dict of arrays."""
        with np.load(normalize_npz_path(self._path(name))) as archive:
            return {key: archive[key] for key in archive.files}

    def write_json(self, name: str, payload: dict) -> str:
        """Atomically write the JSON document."""
        return write_json_atomic(self._path(name), payload)

    def read_json(self, name: str) -> dict:
        """Parse the JSON document."""
        with open(self._path(name)) as handle:
            return json.load(handle)

    def list(self) -> list:
        """File names in the directory (temporaries excluded)."""
        return sorted(name for name in os.listdir(self.root)
                      if not name.startswith(".tmp-"))

    def exists(self, name: str) -> bool:
        """Whether the file exists."""
        return os.path.exists(self._path(name))

    def delete(self, name: str) -> None:
        """Unlink the file."""
        os.unlink(self._path(name))

    def locator(self, name: str) -> str:
        """The file's path inside the directory."""
        return self._path(name)

    def file_path(self, name: str) -> str:
        """Directory stores expose real paths for every blob."""
        return self._path(name)


_MEMORY_IDS = itertools.count()


class InMemoryStore(CheckpointStore):
    """Blobs in a dict; survives nothing, costs nothing, needs no disk.

    Checkpoints are still serialised through ``np.savez`` so the bytes a
    round trip produces are exactly what a directory store would have
    written — the contract tests compare them.
    """

    def __init__(self):
        self._blobs: dict[str, bytes] = {}
        self.root = f"memory://store-{next(_MEMORY_IDS)}"

    def write_arrays(self, name: str, arrays: dict) -> str:
        """Serialise to npz bytes held in the blob dict."""
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        self._blobs[_normalize_name(name)] = buffer.getvalue()
        return self.locator(name)

    def read_arrays(self, name: str) -> dict:
        """Deserialise the stored npz bytes."""
        with np.load(io.BytesIO(self._blobs[_normalize_name(name)])) \
                as archive:
            return {key: archive[key] for key in archive.files}

    def write_json(self, name: str, payload: dict) -> str:
        """Store the document as canonical JSON bytes."""
        rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        self._blobs[_normalize_name(name)] = rendered.encode()
        return self.locator(name)

    def read_json(self, name: str) -> dict:
        """Parse the stored JSON bytes."""
        return json.loads(self._blobs[_normalize_name(name)].decode())

    def list(self) -> list:
        """Sorted blob names currently held."""
        return sorted(self._blobs)

    def exists(self, name: str) -> bool:
        """Whether the blob dict holds the name."""
        return _normalize_name(name) in self._blobs

    def delete(self, name: str) -> None:
        """Drop the blob; raises like a filesystem would when absent."""
        name = _normalize_name(name)
        if name not in self._blobs:
            raise FileNotFoundError(name)
        del self._blobs[name]

    def locator(self, name: str) -> str:
        """``memory://store-<id>/<name>`` pseudo-path."""
        return f"{self.root}/{_normalize_name(name)}"


class ShardedDirectoryStore(CheckpointStore):
    """Archives fan out into ``shard-<k>/`` subdirectories of a root.

    The shard of a blob is a stable function of its *name* (crc32 mod
    ``fanout``), so readers never need an index: any node can compute
    where ``ckpt-00042.npz`` lives.  Metadata documents — anything that
    is not an ``.npz`` archive, i.e. manifests and event logs — stay at
    the root, where humans and dashboards look first.
    """

    #: Root-level marker recording the layout, so re-opening a run
    #: directory (resume, bench restarts) recovers the original fanout.
    MARKER = ".store.json"

    def __init__(self, directory: str | os.PathLike, fanout: int = 16):
        if fanout < 1:
            raise ValueError("fanout must be positive")
        self.root = os.fspath(directory)
        os.makedirs(self.root, exist_ok=True)
        marker = os.path.join(self.root, self.MARKER)
        if os.path.exists(marker):
            with open(marker) as handle:
                self.fanout = int(json.load(handle)["fanout"])
        else:
            self.fanout = fanout
            write_json_atomic(marker, {"layout": "sharded",
                                       "fanout": fanout})

    def shard_of(self, name: str) -> str | None:
        """Shard subdirectory for ``name`` (None for root metadata)."""
        name = _normalize_name(name)
        if not name.endswith(".npz"):
            return None
        return f"shard-{zlib.crc32(name.encode()) % self.fanout:02d}"

    def _path(self, name: str) -> str:
        shard = self.shard_of(name)
        if shard is None:
            return os.path.join(self.root, _normalize_name(name))
        return os.path.join(self.root, shard, _normalize_name(name))

    def write_arrays(self, name: str, arrays: dict) -> str:
        """Atomically write the archive inside its shard directory."""
        path = self._path(name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return atomic_savez(path, **arrays)

    def read_arrays(self, name: str) -> dict:
        """Load the archive from its shard."""
        with np.load(normalize_npz_path(self._path(name))) as archive:
            return {key: archive[key] for key in archive.files}

    def write_json(self, name: str, payload: dict) -> str:
        """Atomically write the JSON document at the root."""
        return write_json_atomic(self._path(name), payload)

    def read_json(self, name: str) -> dict:
        """Parse the JSON document from the root."""
        with open(self._path(name)) as handle:
            return json.load(handle)

    def list(self) -> list:
        """Blob names across the root and every shard directory."""
        names = []
        for entry in os.listdir(self.root):
            path = os.path.join(self.root, entry)
            if os.path.isdir(path) and entry.startswith("shard-"):
                names.extend(name for name in os.listdir(path)
                             if not name.startswith("."))
            elif not entry.startswith("."):
                names.append(entry)
        return sorted(names)

    def exists(self, name: str) -> bool:
        """Whether the blob exists in its computed location."""
        return os.path.exists(self._path(name))

    def delete(self, name: str) -> None:
        """Unlink the blob from its shard."""
        os.unlink(self._path(name))

    def locator(self, name: str) -> str:
        """The blob's sharded (or root, for metadata) path."""
        return self._path(name)

    def file_path(self, name: str) -> str:
        """Sharded stores expose real paths for every blob."""
        return self._path(name)
