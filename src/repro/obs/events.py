"""Schema-versioned structured run events (JSONL).

Long runs emit discrete *events* — guard rollbacks, checkpoint saves,
cache misses, early stops — that aggregate metrics cannot represent.
:class:`EventLog` appends them as one JSON object per line::

    {"schema": 1, "seq": 3, "t": 1754..., "type": "checkpoint.save",
     "epoch": 4, "path": "runs/poshgnn/ckpt-00004.npz", "best": true}

Every record carries the schema version, a monotonically increasing
``seq`` and a wall-clock timestamp; everything else is the emitter's
payload.  ``RunManifest`` records the log *path* plus a per-type count
summary instead of duplicating the records.

A process-wide :data:`EVENTS` log (in-memory, disabled by default) is
wired into library call sites such as the room cache layers; training
runs open their own file-backed log next to their checkpoints.
"""

from __future__ import annotations

import json
import os
import time

__all__ = ["EVENT_SCHEMA_VERSION", "EventLog", "read_events", "EVENTS"]

#: Version stamped into every record; bump on incompatible layout changes.
EVENT_SCHEMA_VERSION = 1


class EventLog:
    """Appends schema-versioned event records to JSONL (or memory).

    ``path=None`` keeps records in :attr:`records`; with a path, lines
    are appended and flushed eagerly so a killed run loses at most the
    event in flight.  Disabled logs drop :meth:`emit` calls for free.
    """

    def __init__(self, path=None, enabled: bool = True):
        self.path = os.fspath(path) if path is not None else None
        self.enabled = enabled
        self.records: list[dict] = []
        self.counts: dict[str, int] = {}
        #: Callables invoked with every emitted/adopted record (e.g. a
        #: flight recorder's bounded ring).
        self.listeners: list = []
        self._seq = 0
        self._handle = None
        if self.path is not None:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._handle = open(self.path, "a")

    # ------------------------------------------------------------------
    def enable(self) -> "EventLog":
        """Turn event collection on (returns self for chaining)."""
        self.enabled = True
        return self

    def disable(self) -> "EventLog":
        """Turn event collection off; recorded events are kept."""
        self.enabled = False
        return self

    # ------------------------------------------------------------------
    def emit(self, kind: str, **fields) -> dict | None:
        """Record one event of type ``kind``; returns the record.

        ``fields`` must be JSON-serialisable.  Returns ``None`` (and
        records nothing) while disabled.
        """
        if not self.enabled:
            return None
        return self._append(kind, time.time(), fields)

    def adopt(self, records, **extra) -> list[dict]:
        """Fold records emitted by *another* log into this one.

        Used to merge a worker process's in-memory event log back into
        the parent's: each record keeps its original type, payload and
        wall-clock ``t`` but is re-stamped with this log's ``seq`` (and
        schema), so the merged stream stays monotonically sequenced.
        ``extra`` fields — typically ``shard=N`` — are added to every
        adopted record, tagging its origin.  Respects :attr:`enabled`
        like :meth:`emit`; returns the adopted records.
        """
        if not self.enabled:
            return []
        return [self._append(record["type"], record.get("t", time.time()),
                             {**{key: value for key, value in record.items()
                                 if key not in ("schema", "seq", "type",
                                                "t")},
                              **extra})
                for record in records]

    def _append(self, kind: str, t: float, fields: dict) -> dict:
        """Stamp, store and broadcast one record (the shared write path)."""
        record = {"schema": EVENT_SCHEMA_VERSION, "seq": self._seq,
                  "t": t, "type": kind}
        record.update(fields)
        self._seq += 1
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if self._handle is not None:
            json.dump(record, self._handle, separators=(",", ":"))
            self._handle.write("\n")
            self._handle.flush()
        else:
            self.records.append(record)
        for listener in self.listeners:
            listener(record)
        return record

    def summary(self) -> dict:
        """Path, total count and per-type counts (for run manifests)."""
        return {"path": self.path, "events": self._seq,
                "by_type": dict(sorted(self.counts.items()))}

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush and close the underlying file (no-op for in-memory)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self):
        """Context-manager entry; returns self."""
        return self

    def __exit__(self, exc_type, exc, tb):
        """Context-manager exit: closes the file handle."""
        self.close()
        return False


def read_events(path) -> list[dict]:
    """Parse a JSONL event log; rejects records from a newer schema."""
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            version = record.get("schema", 0)
            if version > EVENT_SCHEMA_VERSION:
                raise ValueError(
                    f"event log {path!r} has schema {version}; this "
                    f"build reads up to {EVENT_SCHEMA_VERSION}")
            records.append(record)
    return records


#: Process-wide default event log: in-memory and disabled until a
#: debugging session enables it (library call sites emit into it).
EVENTS = EventLog(path=None, enabled=False)
