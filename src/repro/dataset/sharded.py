"""Out-of-core, row-sharded dataset backing (``repro.shards/v1``).

A sharded dataset is a directory::

    <dir>/manifest.json            # schema, shard spans, digests, fingerprints
    <dir>/shards/shard-00000/c0.npy  # one fixed-width unicode array per
    <dir>/shards/shard-00000/c1.npy  # (shard, column)
    ...

Columns are stored as per-shard ``.npy`` arrays and opened with
``np.load(..., mmap_mode="r")``, so reading a shard touches only its pages
and the OS can reclaim them under pressure.  Plain ``.npy`` (not a zipped
``.npz``) is deliberate: numpy cannot memory-map members of a zip archive,
and mapping — not decompressing into anonymous memory — is the whole point.

**Fingerprint contract.**  Ingest feeds every value through the exact
per-column hash recipe of the in-memory backing
(:func:`repro.dataset.relation.hash_column`), one streaming hasher per
column across shards, so ``column_fingerprint``/``fingerprint`` are
bit-identical to an in-memory :class:`~repro.dataset.table.Dataset` holding
the same content.  Every fitted-artifact key is therefore independent of
the backing: a model fitted against the in-memory relation is served warm
against its sharded twin, and vice versa.
Per-shard digests (the same recipe over each shard's rows) are recorded
alongside, and :meth:`ShardedDataset.verify` re-checks them against the
shard files.  A manifest that is not JSON, not an object, missing or
mistyping an entry a reader needs, whose column fingerprints or shard
digests do not cover its attributes, or whose shards do not tile
``[0, num_rows)`` is a ``ValueError`` naming the file and the entry.

The backing is immutable: mutators raise, ``version`` stays 0, and
``copy()`` returns ``self``.  Edit workflows convert to the in-memory
backing first (``repro shard`` CLI, :func:`to_dataset`).

**Fault handling.**  Chunk reads pass through the ``shard.read`` fault
point and retry transient faults (``EIO``-on-read, ``ESTALE``, ...)
through a :class:`~repro.faults.retry.RetryPolicy`.  A shard whose read
faults persist through the budget is **quarantined**: the structured
:class:`ShardQuarantinedError` (shard index, path, errno) is raised, and
every later read of that shard fails fast with the same error — no
retry storm against a dead disk region.  ``clear_quarantine()`` re-admits
shards once the operator believes the fault cleared.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import threading
from bisect import bisect_right
from collections import Counter, OrderedDict
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.dataset.relation import (
    Relation,
    Schema,
    ShardSpan,
    column_hasher,
    compose_fingerprint,
    update_column_hash,
)
from repro.faults.inject import trip
from repro.faults.retry import get_default_policy
from repro.utils.npyio import load_npy


class ShardQuarantinedError(RuntimeError):
    """A shard's reads fault persistently; it is quarantined.

    Carries the shard index, the failing path and the last errno so
    callers (and operators reading the traceback) know exactly which
    region of the dataset is unreadable — instead of a bare ``OSError``
    bubbling out of numpy internals.
    """

    def __init__(self, shard: int, path: Path, errno_value: int | None, cause: str):
        super().__init__(
            f"shard {shard} quarantined after persistent read faults "
            f"(path={path}, errno={errno_value}): {cause}"
        )
        self.shard = shard
        self.path = path
        self.errno = errno_value

#: Manifest format tag; bump when the layout changes meaning.
SHARD_SCHEMA = "repro.shards/v1"

#: Default rows per shard — small enough that one shard's columns decode in
#: a few hundred KB, large enough that manifest overhead is negligible.
DEFAULT_SHARD_ROWS = 4096

_MANIFEST = "manifest.json"

#: The manifest entries a reader needs, with their JSON types.
_MANIFEST_ENTRIES = {
    "attributes": list,
    "num_rows": int,
    "shards": list,
    "column_fingerprints": dict,
    "fingerprint": str,
}
_SHARD_ENTRIES = {"dir": str, "start": int, "rows": int, "digests": list}

_JSON_TYPES = {list: "an array", dict: "an object", int: "an integer", str: "a string"}


def _check_entries(path: Path, where: str, value: object, entries: dict) -> None:
    """Raise a ``ValueError`` naming ``path`` unless ``value`` is a JSON
    object holding every entry of ``entries`` with its type."""
    if not isinstance(value, dict):
        raise ValueError(
            f"{path}: {where} must be {_JSON_TYPES[dict]}, "
            f"not {type(value).__name__}"
        )
    for name, kind in entries.items():
        if name not in value:
            raise ValueError(f"{path}: {where} has no {name!r} entry")
        entry = value[name]
        if not isinstance(entry, kind) or isinstance(entry, bool):
            raise ValueError(
                f"{path}: {where} entry {name!r} must be {_JSON_TYPES[kind]}, "
                f"not {type(entry).__name__}"
            )


def _read_manifest(path: Path) -> dict:
    """The parsed manifest at ``path``, checked for every entry a reader
    needs; anything else is a ``ValueError`` naming ``path``."""
    try:
        with path.open(encoding="utf-8") as f:
            manifest = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: not a JSON manifest ({exc})") from exc
    if isinstance(manifest, dict) and manifest.get("schema") != SHARD_SCHEMA:
        raise ValueError(
            f"{path}: unsupported shard manifest schema "
            f"{manifest.get('schema')!r} (expected {SHARD_SCHEMA!r})"
        )
    _check_entries(path, "manifest", manifest, _MANIFEST_ENTRIES)
    attributes = manifest["attributes"]
    for attr in attributes:
        if not isinstance(attr, str):
            raise ValueError(f"{path}: manifest attribute {attr!r} is not a string")
        if attr not in manifest["column_fingerprints"]:
            raise ValueError(f"{path}: manifest has no column fingerprint for {attr!r}")
    covered = 0
    for i, shard in enumerate(manifest["shards"]):
        _check_entries(path, f"shard {i}", shard, _SHARD_ENTRIES)
        if len(shard["digests"]) != len(attributes):
            raise ValueError(
                f"{path}: shard {i} has {len(shard['digests'])} digests "
                f"for {len(attributes)} attributes"
            )
        # The shards must tile [0, num_rows): row lookups bisect the starts.
        if shard["start"] != covered:
            raise ValueError(f"{path}: shard {i} starts at row {shard['start']}, not {covered}")
        if shard["rows"] < 1:
            raise ValueError(f"{path}: shard {i} holds {shard['rows']} rows")
        covered += shard["rows"]
    if covered != manifest["num_rows"]:
        raise ValueError(
            f"{path}: {len(manifest['shards'])} shards hold {covered} rows, "
            f"but num_rows is {manifest['num_rows']}"
        )
    return manifest


class ShardWriter:
    """Streaming ingest: append rows, flush fixed-size shards, emit manifest.

    Feeds every value through both the whole-column hasher (yielding
    fingerprints bit-identical to the in-memory backing) and a per-shard
    hasher (yielding the per-shard digests :meth:`ShardedDataset.verify`
    re-checks), and accumulates an
    estimate of what the relation would occupy as an in-memory ``Dataset``
    (``inmemory_bytes`` in the manifest — the bound the out-of-core
    benchmark gates peak RSS against).
    """

    def __init__(
        self,
        directory: str | Path,
        attributes: Sequence[str],
        shard_rows: int = DEFAULT_SHARD_ROWS,
        force: bool = False,
    ):
        if shard_rows < 1:
            raise ValueError(f"shard_rows must be positive, got {shard_rows}")
        self.schema = Schema(tuple(attributes))
        self.directory = Path(directory)
        self.shard_rows = int(shard_rows)
        manifest = self.directory / _MANIFEST
        if manifest.exists() and not force:
            raise FileExistsError(
                f"{self.directory} already holds a sharded dataset "
                "(pass force=True / --force to overwrite)"
            )
        (self.directory / "shards").mkdir(parents=True, exist_ok=True)
        self._column_hashers = {a: column_hasher() for a in self.schema.attributes}
        self._buffer: list[list[str]] = [[] for _ in self.schema.attributes]
        self._shards: list[dict] = []
        self._rows = 0
        self._inmemory_bytes = 0
        self._closed = False

    def append_row(self, row: Sequence[str]) -> None:
        if self._closed:
            raise RuntimeError("writer already closed")
        if len(row) != len(self.schema.attributes):
            raise ValueError("row arity does not match schema")
        for buffer, value in zip(self._buffer, row):
            buffer.append(str(value))
        self._rows += 1
        if len(self._buffer[0]) >= self.shard_rows:
            self._flush_shard()

    def append_rows(self, rows: Iterable[Sequence[str]]) -> None:
        for row in rows:
            self.append_row(row)

    def _flush_shard(self) -> None:
        rows = len(self._buffer[0])
        if not rows:
            return
        index = len(self._shards)
        name = f"shard-{index:05d}"
        shard_dir = self.directory / "shards" / name
        shard_dir.mkdir(parents=True, exist_ok=True)
        digests: list[str] = []
        for i, attr in enumerate(self.schema.attributes):
            values = self._buffer[i]
            shard_hash = column_hasher()
            update_column_hash(shard_hash, values)
            update_column_hash(self._column_hashers[attr], values)
            # What the values would cost inside an in-memory Dataset: each
            # str object plus its list slot.
            self._inmemory_bytes += sum(sys.getsizeof(v) + 8 for v in values)
            digests.append(shard_hash.hexdigest())
            np.save(shard_dir / f"c{i}.npy", np.array(values, dtype=str))
        self._shards.append(
            {
                "dir": name,
                "start": self._rows - rows,
                "rows": rows,
                "digests": digests,
            }
        )
        self._buffer = [[] for _ in self.schema.attributes]

    def close(self) -> dict:
        """Flush the trailing shard and atomically write the manifest."""
        if self._closed:
            raise RuntimeError("writer already closed")
        self._flush_shard()
        self._closed = True
        column_fingerprints = {
            a: h.hexdigest() for a, h in self._column_hashers.items()
        }
        manifest = {
            "schema": SHARD_SCHEMA,
            "attributes": list(self.schema.attributes),
            "num_rows": self._rows,
            "shard_rows": self.shard_rows,
            "shards": self._shards,
            "column_fingerprints": column_fingerprints,
            "fingerprint": compose_fingerprint(
                self.schema.attributes, column_fingerprints
            ),
            "inmemory_bytes": self._inmemory_bytes,
        }
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".manifest")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                json.dump(manifest, f, indent=1)
            os.replace(tmp, self.directory / _MANIFEST)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return manifest


class ShardColumnView(Sequence[str]):
    """Lazy, read-only view of one column across shards.

    Indexing locates the owning shard by bisection; iteration streams shard
    by shard, so ``for v in relation.column(a)`` never holds more than one
    shard's array resident.
    """

    __slots__ = ("_dataset", "_attr", "_col")

    def __init__(self, dataset: "ShardedDataset", attr: str):
        self._dataset = dataset
        self._attr = attr
        self._col = dataset.schema.index(attr)

    def __len__(self) -> int:
        return self._dataset.num_rows

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step == 1:
                return self._dataset.column_chunk(self._attr, start, stop)
            return [self[i] for i in range(start, stop, step)]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"row {index} out of range")
        shard, local = self._dataset._locate(index)
        return self._dataset._array(shard, self._col)[local]

    def __iter__(self) -> Iterator[str]:
        for span in self._dataset.shard_spans():
            yield from self._dataset._array(span.index, self._col)

    def __repr__(self) -> str:
        return f"ShardColumnView({self._attr!r}, {len(self)} rows)"


class ShardedDataset(Relation):
    """Immutable out-of-core relation backed by a shard directory.

    ``max_open_arrays`` bounds how many (shard, column) arrays stay open at
    once (a small LRU) — the knob that keeps resident pages proportional to
    the streaming window, not the relation.  The LRU is locked, so threads
    may read one relation at once (the featurizer fits of
    :meth:`~repro.features.pipeline.FeaturePipeline.fit` do).
    """

    def __init__(
        self,
        directory: str | Path,
        max_open_arrays: int = 64,
    ):
        self.directory = Path(directory)
        manifest_path = self.directory / _MANIFEST
        if not manifest_path.exists():
            raise FileNotFoundError(
                f"{self.directory} has no {_MANIFEST} — not a sharded dataset"
            )
        manifest = _read_manifest(manifest_path)
        self.manifest = manifest
        self.schema = Schema(tuple(manifest["attributes"]))
        self._num_rows = int(manifest["num_rows"])
        self._shards = manifest["shards"]
        self._starts = [int(s["start"]) for s in self._shards]
        self._column_fps: dict[str, str] = dict(manifest["column_fingerprints"])
        self._fingerprint: str = manifest["fingerprint"]
        if max_open_arrays < 1:
            raise ValueError("max_open_arrays must be positive")
        self._max_open = max_open_arrays
        self._open: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()
        self._open_lock = threading.Lock()
        self._quarantined: dict[int, ShardQuarantinedError] = {}

    @property
    def quarantined(self) -> dict[int, ShardQuarantinedError]:
        """Quarantined shards: ``{shard index: the error that sealed it}``."""
        return dict(self._quarantined)

    def clear_quarantine(self) -> list[int]:
        """Re-admit all quarantined shards; returns their indices."""
        cleared = sorted(self._quarantined)
        self._quarantined.clear()
        return cleared

    # ------------------------------------------------------------------ #
    # Construction / conversion
    # ------------------------------------------------------------------ #

    @classmethod
    def convert(
        cls,
        relation: Relation,
        directory: str | Path,
        shard_rows: int = DEFAULT_SHARD_ROWS,
        force: bool = False,
    ) -> "ShardedDataset":
        """Materialise any relation (typically an in-memory ``Dataset``) as
        a shard directory and open it."""
        writer = ShardWriter(directory, relation.attributes, shard_rows, force=force)
        columns = [relation.column(a) for a in relation.attributes]
        for row in range(relation.num_rows):
            writer.append_row([col[row] for col in columns])
        writer.close()
        return cls(directory)

    @classmethod
    def from_csv(
        cls,
        csv_path: str | Path,
        directory: str | Path,
        shard_rows: int = DEFAULT_SHARD_ROWS,
        missing_token: str = "",
        force: bool = False,
    ) -> "ShardedDataset":
        """Stream a headered CSV into a shard directory without ever holding
        the relation in memory (same record reader and missing-value
        convention as :func:`repro.dataset.loader.read_csv`)."""
        from repro.dataset.loader import csv_records

        records = csv_records(csv_path)
        _, header = next(records)
        writer = ShardWriter(directory, header, shard_rows, force=force)
        for _, fields in records:
            writer.append_row([f if f != "" else missing_token for f in fields])
        writer.close()
        return cls(directory)

    def to_dataset(self):
        """Materialise as a mutable in-memory :class:`Dataset` (small
        relations only — this is the explicit opt-out of out-of-core)."""
        from repro.dataset.table import Dataset

        return Dataset(
            self.schema,
            {a: [str(v) for v in self.column(a)] for a in self.schema.attributes},
        )

    def copy(self) -> "ShardedDataset":
        """Immutable — the copy is the dataset itself."""
        return self

    # ------------------------------------------------------------------ #
    # Relation primitives
    # ------------------------------------------------------------------ #

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    def column(self, attr: str) -> ShardColumnView:
        return ShardColumnView(self, attr)

    def column_fingerprint(self, attr: str) -> str:
        return self._column_fps[attr]

    def fingerprint(self) -> str:
        return self._fingerprint

    def column_chunk(self, attr: str, start: int, stop: int) -> list[str]:
        if not (0 <= start <= stop <= self._num_rows):
            raise IndexError(f"chunk [{start}, {stop}) out of range")
        col = self.schema.index(attr)
        out: list[str] = []
        row = start
        while row < stop:
            shard, local = self._locate(row)
            take = min(stop - row, self._shards[shard]["rows"] - local)
            out.extend(self._array(shard, col)[local : local + take])
            row += take
        return out

    def value(self, cell) -> str:
        if not 0 <= cell.row < self._num_rows:
            raise IndexError(f"row {cell.row} out of range")
        shard, local = self._locate(cell.row)
        return self._array(shard, self.schema.index(cell.attr))[local]

    # ------------------------------------------------------------------ #
    # Shard addressing
    # ------------------------------------------------------------------ #

    def shard_spans(self) -> tuple[ShardSpan, ...]:
        return tuple(
            ShardSpan(i, int(s["start"]), int(s["start"]) + int(s["rows"]))
            for i, s in enumerate(self._shards)
        )

    @property
    def inmemory_bytes(self) -> int:
        """Ingest-time estimate of the in-memory ``Dataset`` footprint."""
        return int(self.manifest.get("inmemory_bytes", 0))

    def _locate(self, row: int) -> tuple[int, int]:
        shard = bisect_right(self._starts, row) - 1
        return shard, row - self._starts[shard]

    def _chunk_path(self, shard: int, col: int) -> Path:
        return self.directory / "shards" / self._shards[shard]["dir"] / f"c{col}.npy"

    def _array(self, shard: int, col: int) -> np.ndarray:
        key = (shard, col)
        # The lock covers the LRU bookkeeping only, so threads never evict
        # each other's keys; a load and its retry backoff run outside it.
        with self._open_lock:
            arr = self._open.get(key)
            if arr is not None:
                self._open.move_to_end(key)
                return arr
            sealed = self._quarantined.get(shard)
        if sealed is not None:
            raise sealed  # fail fast: no retry storm against a dead shard
        path = self._chunk_path(shard, col)

        def load() -> np.ndarray:
            trip("shard.read")
            return load_npy(path, mmap_mode="r")

        try:
            arr = get_default_policy().call(load, point="shard.read", op="read")
        except FileNotFoundError:
            raise  # a missing shard file is a broken dataset, not a fault
        except OSError as exc:
            error = ShardQuarantinedError(
                shard, path, getattr(exc, "errno", None), str(exc)
            )
            self._quarantined[shard] = error
            raise error from exc
        with self._open_lock:
            # Another thread may have loaded the same key meanwhile: every
            # reader gets the array the LRU holds.
            arr = self._open.setdefault(key, arr)
            self._open.move_to_end(key)
            while len(self._open) > self._max_open:
                self._open.popitem(last=False)
        return arr

    # ------------------------------------------------------------------ #
    # Streaming statistics (never materialise a whole column)
    # ------------------------------------------------------------------ #

    def value_counts(self, attr: str) -> dict[str, int]:
        col = self.schema.index(attr)
        counts: Counter[str] = Counter()
        for span in self.shard_spans():
            counts.update(map(str, self._array(span.index, col)))
        return dict(counts)

    def domain(self, attr: str) -> list[str]:
        col = self.schema.index(attr)
        seen: dict[str, None] = {}
        for span in self.shard_spans():
            seen.update(dict.fromkeys(map(str, self._array(span.index, col))))
        return list(seen)

    # ------------------------------------------------------------------ #
    # Integrity
    # ------------------------------------------------------------------ #

    def verify(self) -> None:
        """Recompute every digest from the shard files and compare with the
        manifest; raises ``ValueError`` on the first mismatch, and one
        naming the chunk file when it is missing, unreadable, not an array
        file, or does not hold its shard's rows."""
        hashers = {a: column_hasher() for a in self.schema.attributes}
        for span in self.shard_spans():
            for i, attr in enumerate(self.schema.attributes):
                path = self._chunk_path(span.index, i)
                try:
                    values = self._array(span.index, i).tolist()
                except FileNotFoundError:
                    raise ValueError(f"{path}: chunk file is missing") from None
                except ShardQuarantinedError as exc:
                    raise ValueError(
                        f"{path}: unreadable, shard {exc.shard} quarantined (errno {exc.errno})"
                    ) from exc
                except ValueError as exc:  # numpy: not an .npy array file
                    raise ValueError(f"{path}: not a chunk file ({exc})") from exc
                if len(values) != span.rows:
                    raise ValueError(f"{path}: holds {len(values)} values, not {span.rows}")
                shard_hash = column_hasher()
                update_column_hash(shard_hash, values)
                update_column_hash(hashers[attr], values)
                recorded = self._shards[span.index]["digests"][i]
                if shard_hash.hexdigest() != recorded:
                    raise ValueError(
                        f"shard {span.index} column {attr!r}: digest mismatch"
                    )
        for attr, hasher in hashers.items():
            if hasher.hexdigest() != self._column_fps[attr]:
                raise ValueError(f"column {attr!r}: fingerprint mismatch")
        composed = compose_fingerprint(self.schema.attributes, self._column_fps)
        if composed != self._fingerprint:
            raise ValueError("relation fingerprint does not compose from columns")

    # ------------------------------------------------------------------ #
    # Mutation is rejected
    # ------------------------------------------------------------------ #

    def _immutable(self, op: str):
        raise TypeError(
            f"ShardedDataset is immutable — {op} is not supported; convert to "
            "an in-memory Dataset first (ShardedDataset.to_dataset())"
        )

    def set_value(self, cell, value):  # pragma: no cover - trivial
        self._immutable("set_value")

    def apply_edits(self, edits):
        self._immutable("apply_edits")

    def append_rows(self, rows):
        self._immutable("append_rows")

    def __repr__(self) -> str:
        return (
            f"ShardedDataset({self._num_rows} rows x {len(self.schema)} attrs, "
            f"{self.num_shards} shards @ {self.directory})"
        )
