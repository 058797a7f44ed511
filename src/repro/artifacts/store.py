"""The content-addressed artifact store: a memory tier + optional disk objects.

A *payload* is a JSON-able dict that may carry numpy arrays as values at any
depth (e.g. a :meth:`FastTextEmbedding.to_state` dict).  The store
content-addresses payloads by the caller-derived key
(:func:`repro.artifacts.keys.artifact_key`) at two tiers:

- an **in-process memory tier** serving repeated fits in one process at
  dictionary-lookup cost.  A memory-only store keeps every payload it is
  given: the memory tier is its only copy, so an eviction would turn a
  warm refit into a retrain, and one fit of a wide relation (two
  embeddings per column) can store more artifacts than an LRU of
  :data:`LRU_MAX_ENTRIES` holds.  A directory-backed store keeps the
  :data:`LRU_MAX_ENTRIES` most recently used payloads in memory; an
  evicted key comes back as a disk hit;
- an optional **on-disk object directory** shared across processes::

      <dir>/objects/<key[:2]>/<key>.npz   # arrays + JSON state, one file per key
      <dir>/index.jsonl                   # append-only manifest, latest-wins

  Object writes are atomic (temp file + rename), so concurrent sweep
  workers race benignly: both compute the same content and the second
  rename is a no-op in effect.  Objects are written uncompressed
  (``np.savez``: float64 tables barely compress, and compressing them
  cost more than the rest of the put); ``np.load`` reads compressed
  objects written by earlier versions just the same.  The manifest follows the same append-only /
  latest-wins / corrupt-tail-tolerant discipline as
  :mod:`repro.evaluation.store`; it is informational (listing, sizes) —
  reads always probe the object files, so a worker sees artifacts written
  by its siblings after this store was opened.

A corrupt or truncated object file (a killed worker mid-write outside the
atomic path, disk trouble) is treated as a miss: the file is dropped,
``stats.corrupt_dropped`` is bumped, and the caller refits.  A read that
fails for any other reason (``SystemError``, ``MemoryError``) is a miss
counted in ``stats.read_errors`` that keeps the file.

**Fault handling** (see ``docs/architecture.md`` → Fault model): disk I/O
is classified through :mod:`repro.faults.taxonomy` and retried through a
:class:`~repro.faults.retry.RetryPolicy` at the ``artifacts.object_write``
/ ``artifacts.object_read`` / ``artifacts.index_append`` fault points.
Transient faults (``EAGAIN``, ``ESTALE``, ``EIO``-on-read, ...) are
retried with backoff; *fatal* faults (``ENOSPC``, ``EROFS``, ``EACCES``)
are never retried — a write hitting one warns once, flips
``stats.degraded``, and is swallowed (the store is a wall-clock
accelerator: the fit that produced the payload must not fail because it
could not be memoised), while a persistent *read* fault reports a miss
without deleting the object (the bytes may be intact; only *corrupt
content* is unlinked).

Payloads returned by :meth:`ArtifactStore.get` are shared with the memory
tier — treat them as read-only (the codec copies arrays into fresh models).
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import warnings
import zipfile
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from repro.faults.inject import append_jsonl, parse_jsonl_line, trip
from repro.faults.retry import get_default_policy
from repro.faults.taxonomy import is_fatal
from repro.utils.npyio import load_npz

#: JSON state entry inside each ``.npz`` object file.
_STATE_KEY = "__state__"

#: What reading a damaged object raises: garbage, truncated and empty
#: files (``BadZipFile``, ``EOFError``, ``ValueError``), bad JSON state
#: (``JSONDecodeError``, a ``ValueError``), a pickled member
#: (``ValueError``) and a missing state entry or array (``KeyError``).
_CORRUPT_CONTENT = (ValueError, zipfile.BadZipFile, EOFError, KeyError)

#: Memory-tier capacity of a directory-backed store (a memory-only store
#: keeps every payload).
LRU_MAX_ENTRIES = 64


@dataclass
class ArtifactStats:
    """Hit/miss accounting for one :class:`ArtifactStore`."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    corrupt_dropped: int = 0
    write_errors: int = 0
    read_errors: int = 0
    fatal_errors: int = 0
    #: Set when a *fatal* disk fault (``ENOSPC``, ``EROFS``, ``EACCES``)
    #: was observed: the disk tier is compromised, the memory tier still
    #: serves.  Surfaced through ``HoloDetect.artifact_stats`` and serve
    #: health reports.
    degraded: bool = False

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store (0.0 when never used)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, int]:
        """JSON-able counter snapshot (includes the derived totals)."""
        payload = asdict(self)
        payload["hits"] = self.hits
        payload["lookups"] = self.lookups
        return payload

    def summary(self) -> str:
        text = (
            f"{self.hits} hits / {self.lookups} lookups ({self.hit_rate:.0%}; "
            f"{self.memory_hits} memory, {self.disk_hits} disk), "
            f"{self.puts} stored, {self.corrupt_dropped} corrupt dropped"
        )
        if self.degraded:
            text += f" [DEGRADED: {self.fatal_errors} fatal disk faults]"
        return text


def flatten_arrays(
    payload: object, arrays: dict[str, np.ndarray], **json_options: object
) -> str:
    """JSON text of ``payload`` with each ndarray replaced by an
    ``{"__array__": ref}`` marker.

    Each array is added to ``arrays`` under its ref (``a0``, ``a1``, ... in
    encoding order); ``json_options`` go to :func:`json.dumps`.  This pair
    is the one array layer of the repo: artifact objects and saved
    detectors (:mod:`repro.persistence`) both place their arrays through it.
    """

    def place(obj: object) -> dict:
        if not isinstance(obj, np.ndarray):
            raise TypeError(f"{type(obj).__name__} is not JSON serializable")
        ref = f"a{len(arrays)}"
        arrays[ref] = obj
        return {"__array__": ref}

    return json.dumps(payload, default=place, **json_options)


def restore_arrays(text: str, arrays: Mapping[str, np.ndarray]) -> object:
    """Inverse of :func:`flatten_arrays`: decode ``text``, putting each
    array back in place of its marker."""

    def restore(obj: dict) -> object:
        if len(obj) == 1 and "__array__" in obj:
            return arrays[obj["__array__"]]
        return obj

    return json.loads(text, object_hook=restore)


class ArtifactStore:
    """Thread-safe store of fitted-artifact payloads with optional shared
    on-disk backing.

    ``directory=None`` gives a process-local memory-only store (the warm-fit
    case), which keeps every payload; a directory adds the cross-process
    object tier (the sweep case) and bounds the memory tier to an LRU of
    :data:`LRU_MAX_ENTRIES`.  The directory is created lazily on the first
    write.
    """

    def __init__(self, directory: str | Path | None = None):
        self.directory = Path(directory) if directory is not None else None
        self.stats = ArtifactStats()
        self._entries: OrderedDict[str, dict] = OrderedDict()
        self._lock = threading.Lock()
        self._warned_fatal = False

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        where = str(self.directory) if self.directory is not None else "memory"
        return (
            f"ArtifactStore({where}, entries={len(self._entries)}, "
            f"{self.stats.summary()})"
        )

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #

    def object_path(self, key: str) -> Path | None:
        """Disk path of one artifact object (``None`` for memory-only)."""
        if self.directory is None:
            return None
        return self.directory / "objects" / key[:2] / f"{key}.npz"

    @property
    def index_path(self) -> Path | None:
        if self.directory is None:
            return None
        return self.directory / "index.jsonl"

    # ------------------------------------------------------------------ #
    # Lookup / insert
    # ------------------------------------------------------------------ #

    def get(self, key: str) -> dict | None:
        """The payload stored under ``key``, or ``None`` on a miss.

        Memory first, then the object directory; disk hits are promoted
        into the memory tier.  The returned dict is shared — treat as read-only.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.memory_hits += 1
                return entry
        payload = self._read_object(key)
        with self._lock:
            if payload is None:
                self.stats.misses += 1
                return None
            self.stats.disk_hits += 1
            self._insert(key, payload)
        return payload

    def put(self, key: str, payload: dict, kind: str = "artifact",
            meta: Mapping[str, object] | None = None) -> None:
        """Store ``payload`` under ``key`` (memory, and disk when backed).

        ``kind`` and ``meta`` are recorded in the manifest only — the key
        already encodes everything that determines the content.  A failed
        disk write (full disk, lost permissions) is counted and swallowed:
        the store is a wall-clock accelerator, and the fit that just
        produced the payload must never fail because it could not be
        memoised — the memory tier still serves it in-process.  Transient
        faults are retried through the policy first; a *fatal* fault
        additionally warns once and marks the store degraded.
        """
        if self.directory is not None:
            try:
                get_default_policy().call(
                    lambda: self._write_object(key, payload, kind, meta),
                    point="artifacts.object_write",
                    op="write",
                )
            except OSError as exc:
                self._note_write_fault(exc)
            except Exception:
                with self._lock:
                    self.stats.write_errors += 1
        with self._lock:
            self.stats.puts += 1
            self._insert(key, payload)

    def _note_write_fault(self, exc: OSError) -> None:
        fatal = is_fatal(exc, op="write")
        with self._lock:
            self.stats.write_errors += 1
            if fatal:
                self.stats.fatal_errors += 1
                self.stats.degraded = True
                if self._warned_fatal:
                    return
                self._warned_fatal = True
        if fatal:
            warnings.warn(
                f"artifact store at {self.directory} hit a fatal disk fault "
                f"({exc}); disk tier degraded, memory tier still serves "
                f"(further fatal faults are counted silently)",
                RuntimeWarning,
                stacklevel=3,
            )

    def _insert(self, key: str, payload: dict) -> None:
        # Caller holds the lock.
        self._entries[key] = payload
        self._entries.move_to_end(key)
        while self.directory is not None and len(self._entries) > LRU_MAX_ENTRIES:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def clear_memory(self) -> None:
        """Drop the in-process tier (disk objects are never evicted)."""
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------ #
    # Disk tier
    # ------------------------------------------------------------------ #

    def _read_object(self, key: str) -> dict | None:
        path = self.object_path(key)
        if path is None or not path.exists():
            return None

        def load() -> dict:
            trip("artifacts.object_read")
            arrays = load_npz(path)
            return restore_arrays(str(arrays.pop(_STATE_KEY)), arrays)

        try:
            return get_default_policy().call(
                load, point="artifacts.object_read", op="read"
            )
        except FileNotFoundError:
            # Raced a concurrent unlink between exists() and load: a miss.
            return None
        except _CORRUPT_CONTENT:
            # Truncated/corrupt object (killed writer outside the atomic
            # path): drop it and report a miss — the caller refits and
            # re-stores.
            with self._lock:
                self.stats.corrupt_dropped += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        except Exception:
            # A persistent disk fault or any other failure of the read
            # itself (``SystemError``, ``MemoryError``), not provably-corrupt
            # content: report a miss but keep the file — the bytes may be
            # intact once the fault clears.
            with self._lock:
                self.stats.read_errors += 1
            return None

    def _write_object(self, key: str, payload: dict, kind: str,
                      meta: Mapping[str, object] | None) -> None:
        trip("artifacts.object_write")
        path = self.object_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays: dict[str, np.ndarray] = {}
        state = flatten_arrays(payload, arrays, sort_keys=True)
        arrays[_STATE_KEY] = np.array(state)
        # Atomic publish: a reader either sees the complete object or none.
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                np.savez(f, **arrays)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._append_index(key, kind, path, meta)

    def _append_index(self, key: str, kind: str, path: Path,
                      meta: Mapping[str, object] | None) -> None:
        record = {
            "key": key,
            "kind": kind,
            "nbytes": path.stat().st_size,
        }
        if meta:
            record["meta"] = dict(meta)
        # The manifest is informational — a persistently failing append
        # must not fail the put (the object itself already landed).
        try:
            append_jsonl(self.index_path, record, "artifacts.index_append")
        except OSError:
            pass

    def index(self) -> Iterator[dict]:
        """Manifest records (latest per key wins, corrupt lines skipped)."""
        path = self.index_path
        if path is None or not path.exists():
            return iter(())
        records: dict[str, dict] = {}
        for line in path.read_bytes().split(b"\n"):
            if not line.strip():
                continue
            record, _ = parse_jsonl_line(line)
            if record is not None and isinstance(record.get("key"), str):
                records[record["key"]] = record
        return iter(records.values())
