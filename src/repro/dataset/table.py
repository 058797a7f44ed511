"""In-memory relation with cell-level addressing and column-scoped versioning.

The abstract relation protocol — :class:`Cell`, :class:`Schema`,
:class:`DatasetDelta`, the fingerprint recipes, and the read-side
:class:`~repro.dataset.relation.Relation` base — lives in
:mod:`repro.dataset.relation` (they are re-exported here for compatibility).
This module provides the *mutable in-memory backing*: storage is columnar
(``dict[attr, list[str]]``), which keeps per-attribute statistics — the
dominant access pattern in featurisation — cheap.

Versioning is column-scoped: every column carries its own memoised content
fingerprint, and the relation fingerprint is derived from the column
fingerprints.  A mutation therefore re-hashes only the touched columns, and
downstream consumers (the artifact store, :class:`DetectionSession`) can
tell *which* columns changed.  The batch mutators :meth:`Dataset.apply_edits` and
:meth:`Dataset.append_rows` return a structured :class:`DatasetDelta`
describing exactly the touched rows and columns.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.dataset.relation import (
    Cell,
    DatasetDelta,
    Relation,
    Schema,
    compose_fingerprint,
    hash_column,
)

__all__ = ["Cell", "Dataset", "DatasetDelta", "Schema"]


class Dataset(Relation):
    """A relation: ordered rows over a fixed schema, all values strings.

    Rows keep their integer identity (`Cell.row`) across copies so that
    ground truth, training labels, and predictions can be joined by cell.
    """

    def __init__(self, schema: Schema, columns: Mapping[str, Sequence[str]]):
        if set(columns) != set(schema.attributes):
            raise ValueError("columns do not match schema attributes")
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
        self.schema = schema
        self._columns: dict[str, list[str]] = {
            a: [str(v) for v in columns[a]] for a in schema.attributes
        }
        self._num_rows = lengths.pop() if lengths else 0
        #: Per-column memoised content hashes; None = recompute on demand.
        self._column_fingerprints: dict[str, str | None] = {
            a: None for a in schema.attributes
        }
        self._fingerprint: str | None = None
        self._version = 0

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_rows(cls, attributes: Sequence[str], rows: Iterable[Sequence[str]]) -> "Dataset":
        """Build a dataset from row-major data."""
        schema = Schema(tuple(attributes))
        cols: dict[str, list[str]] = {a: [] for a in schema.attributes}
        for row in rows:
            if len(row) != len(schema.attributes):
                raise ValueError("row arity does not match schema")
            for attr, value in zip(schema.attributes, row):
                cols[attr].append(str(value))
        return cls(schema, cols)

    @classmethod
    def from_dicts(cls, rows: Iterable[Mapping[str, str]], attributes: Sequence[str] | None = None) -> "Dataset":
        """Build a dataset from a list of ``{attr: value}`` mappings."""
        rows = list(rows)
        if attributes is None:
            if not rows:
                raise ValueError("cannot infer schema from zero rows")
            attributes = list(rows[0].keys())
        return cls.from_rows(attributes, [[r[a] for a in attributes] for r in rows])

    def copy(self) -> "Dataset":
        """Deep copy (cells can be mutated independently)."""
        clone = Dataset(self.schema, {a: list(v) for a, v in self._columns.items()})
        # Content is identical, so memoised hashes carry over for free — and
        # so does the version counter: a consumer tracking ``version`` across
        # a copy must never see it jump backwards.
        clone._column_fingerprints = dict(self._column_fingerprints)
        clone._fingerprint = self._fingerprint
        clone._version = self._version
        return clone

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def version(self) -> int:
        """Monotonic mutation counter (bumped by every effective mutation)."""
        return self._version

    def column(self, attr: str) -> list[str]:
        """The full value list of one attribute (do not mutate)."""
        return self._columns[attr]

    def value(self, cell: Cell) -> str:
        """Observed value ``v_c`` of a cell."""
        return self._columns[cell.attr][cell.row]

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def _mark_dirty(self, attrs: Iterable[str]) -> None:
        for attr in attrs:
            self._column_fingerprints[attr] = None
        self._fingerprint = None
        self._version += 1

    def set_value(self, cell: Cell, value: str) -> None:
        """Mutate one cell in place (used by error injection and repair):
        a one-cell :meth:`apply_edits`, with its checks.

        Writing the value already present is a no-op: fingerprints and the
        version counter stay untouched.
        """
        self.apply_edits(((cell, value),))

    def apply_edits(
        self, edits: Mapping[Cell, str] | Iterable[tuple[Cell, str]]
    ) -> DatasetDelta:
        """Apply a batch of cell edits; returns the delta of effective changes.

        ``edits`` maps cells to their new values (or is an iterable of
        ``(cell, value)`` pairs; later entries win on duplicate cells).
        Edits that restate the current value are dropped from the delta —
        they dirty nothing.  "Current" means the value *before this batch*:
        duplicate edits that net out to a no-op (write ``"b"``, write the
        original back) leave the cell, its column, and the version counter
        untouched.  Only the truly changed columns are re-fingerprinted.
        """
        items = edits.items() if isinstance(edits, Mapping) else edits
        # Validate (and coerce) the whole batch before touching anything, so
        # an invalid edit can never leave the relation half-mutated with
        # stale fingerprints.
        staged: list[tuple[Cell, str]] = []
        for cell, value in items:
            if cell.attr not in self._columns:
                raise KeyError(f"unknown attribute {cell.attr!r}")
            if not 0 <= cell.row < self._num_rows:
                raise IndexError(f"row {cell.row} out of range")
            staged.append((cell, str(value)))
        # Snapshot pre-batch values per distinct cell (first sighting wins),
        # then apply in order (later entries win), then judge every cell
        # against its pre-batch value — the delta's contract.
        originals: dict[Cell, str] = {}
        for cell, value in staged:
            column = self._columns[cell.attr]
            if cell not in originals:
                originals[cell] = column[cell.row]
            column[cell.row] = value
        changed: dict[Cell, None] = {}
        touched_attrs: set[str] = set()
        touched_rows: set[int] = set()
        for cell, original in originals.items():
            if self._columns[cell.attr][cell.row] == original:
                continue
            changed[cell] = None
            touched_attrs.add(cell.attr)
            touched_rows.add(cell.row)
        if changed:
            self._mark_dirty(touched_attrs)
        return DatasetDelta(
            cells=tuple(changed),
            columns=tuple(a for a in self.schema.attributes if a in touched_attrs),
            rows=tuple(sorted(touched_rows)),
        )

    def append_rows(self, rows: Iterable[Sequence[str]]) -> DatasetDelta:
        """Append row-major tuples; returns the delta with the new row ids.

        Appending touches every column (each gains values), so all column
        fingerprints are invalidated; the new rows appear in both
        ``delta.rows`` and ``delta.appended``.
        """
        staged: list[list[str]] = []
        for row in rows:
            if len(row) != len(self.schema.attributes):
                raise ValueError("row arity does not match schema")
            staged.append([str(v) for v in row])
        if not staged:
            return DatasetDelta()
        start = self._num_rows
        for row in staged:
            for attr, value in zip(self.schema.attributes, row):
                self._columns[attr].append(value)
        self._num_rows += len(staged)
        self._mark_dirty(self.schema.attributes)
        appended = tuple(range(start, self._num_rows))
        return DatasetDelta(
            columns=self.schema.attributes, rows=appended, appended=appended
        )

    # ------------------------------------------------------------------ #
    # Fingerprints
    # ------------------------------------------------------------------ #

    def column_fingerprint(self, attr: str) -> str:
        """Stable content hash of one column, memoised until it is mutated.

        Per-column embedding artifacts are keyed on this value, so an edit
        to column A never invalidates column B's.
        """
        fp = self._column_fingerprints[attr]
        if fp is None:
            fp = hash_column(self._columns[attr])
            self._column_fingerprints[attr] = fp
        return fp

    def fingerprint(self) -> str:
        """Stable content hash of the relation (schema order + all values).

        Derived from the per-column fingerprints, so after a mutation only
        the dirty columns are re-hashed — never the whole relation.
        Relation-wide artifacts are keyed on this value, so any in-place
        mutation invalidates them.
        """
        if self._fingerprint is None:
            self._fingerprint = compose_fingerprint(
                self.schema.attributes,
                {a: self.column_fingerprint(a) for a in self.schema.attributes},
            )
        return self._fingerprint

    # ------------------------------------------------------------------ #
    # Row access (fast paths over the Relation defaults)
    # ------------------------------------------------------------------ #

    def row_dict(self, row: int) -> dict[str, str]:
        """One tuple as an ``{attr: value}`` mapping."""
        if not 0 <= row < self._num_rows:
            raise IndexError(f"row {row} out of range")
        return {a: self._columns[a][row] for a in self.schema.attributes}

    def row_values(self, row: int) -> list[str]:
        """One tuple as a value list in schema order."""
        return [self._columns[a][row] for a in self.schema.attributes]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            # Mixed-backing comparisons fall through to the chunk-wise
            # Relation comparison (reflected for Dataset == ShardedDataset).
            if isinstance(other, Relation):
                return Relation.__eq__(self, other)
            return NotImplemented
        return self.schema == other.schema and self._columns == other._columns

    def __repr__(self) -> str:
        return f"Dataset({self._num_rows} rows x {len(self.schema)} attrs)"
