"""Abstract relation protocol shared by every dataset backing.

The paper's data model (§3.1): a dataset ``D`` is a set of tuples over
attributes ``A1..AN``; a *cell* is the value of one attribute in one tuple.
All values are strings (error detection treats cell contents as opaque text).

This module holds what is common to every backing — cell addressing
(:class:`Cell`), the schema, mutation deltas (:class:`DatasetDelta`), the
fingerprint recipes, and the :class:`Relation` base class with the derived
read-side API.  Two backings implement it:

- :class:`~repro.dataset.table.Dataset` — the in-memory columnar relation
  with in-place mutation and column-scoped versioning;
- :class:`~repro.dataset.sharded.ShardedDataset` — an immutable, row-sharded
  out-of-core backing whose columns live in memory-mapped per-shard chunks.

The fingerprint recipes live here because they are a *contract*: both
backings must produce bit-identical column and relation fingerprints for the
same content, which is what keeps every fitted-artifact key independent of
the backing (see ``docs/architecture.md``, "Sharded & out-of-core
datasets").

Shard addressing is part of the read-side protocol: every relation exposes
:meth:`Relation.shard_spans` (the in-memory backing reports one span covering
the whole relation), so streaming fit paths iterate shards uniformly without
type-switching on the backing.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence


@dataclass(frozen=True, slots=True)
class Cell:
    """Address of a single cell: row index plus attribute name."""

    row: int
    attr: str


@dataclass(frozen=True)
class Schema:
    """Ordered attribute list of a relation."""

    attributes: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.attributes)) != len(self.attributes):
            raise ValueError("duplicate attribute names in schema")
        if not self.attributes:
            raise ValueError("schema must have at least one attribute")

    def __contains__(self, attr: str) -> bool:
        return attr in self.attributes

    def __len__(self) -> int:
        return len(self.attributes)

    def index(self, attr: str) -> int:
        """Position of ``attr`` in the schema (raises ``KeyError`` if absent,
        like every column accessor)."""
        try:
            return self.attributes.index(attr)
        except ValueError:
            raise KeyError(f"unknown attribute {attr!r}") from None


@dataclass(frozen=True)
class DatasetDelta:
    """Structured description of one batch mutation of a :class:`Dataset`.

    ``cells`` lists the pre-existing cells whose value actually changed
    (no-op edits — writing the value already present — are excluded, because
    they cannot invalidate anything).  ``columns`` are the touched attributes
    in schema order; ``rows`` the touched row indices in ascending order,
    including any appended rows, which are additionally listed in
    ``appended``.
    """

    cells: tuple[Cell, ...] = ()
    columns: tuple[str, ...] = ()
    rows: tuple[int, ...] = ()
    appended: tuple[int, ...] = ()

    @property
    def is_empty(self) -> bool:
        """True when the mutation changed nothing."""
        return not self.cells and not self.appended

    def merge(self, other: "DatasetDelta") -> "DatasetDelta":
        """Combine two deltas of the *same* dataset (self first, then other)."""
        columns = dict.fromkeys(self.columns)
        columns.update(dict.fromkeys(other.columns))
        return DatasetDelta(
            cells=self.cells + other.cells,
            columns=tuple(columns),
            rows=tuple(sorted({*self.rows, *other.rows})),
            appended=tuple(sorted({*self.appended, *other.appended})),
        )

    def __repr__(self) -> str:
        return (
            f"DatasetDelta({len(self.cells)} cells, {len(self.columns)} columns, "
            f"{len(self.rows)} rows, {len(self.appended)} appended)"
        )


@dataclass(frozen=True)
class ShardSpan:
    """One row shard of a relation: the half-open row range ``[start, stop)``."""

    index: int
    start: int
    stop: int

    @property
    def rows(self) -> int:
        return self.stop - self.start


# --------------------------------------------------------------------- #
# Fingerprint recipes (the cross-backing contract)
# --------------------------------------------------------------------- #


def column_hasher():
    """A fresh streaming column hasher (see :func:`hash_column`)."""
    return hashlib.blake2b(digest_size=16)


def update_column_hash(hasher, values: Iterable[str]) -> None:
    """Feed values into a column hasher, in row order.

    Feeding a column shard-by-shard into one hasher yields exactly the
    whole-column digest — this is what makes per-shard ingest produce
    fingerprints bit-identical to the in-memory backing.
    """
    for value in values:
        hasher.update(value.encode("utf-8"))
        hasher.update(b"\x1e")


def hash_column(values: Sequence[str]) -> str:
    """Content hash of one column (the per-column fingerprint recipe)."""
    h = column_hasher()
    update_column_hash(h, values)
    return h.hexdigest()


def compose_fingerprint(
    attributes: Sequence[str], column_fingerprints: Mapping[str, str]
) -> str:
    """Relation fingerprint from per-column fingerprints, in schema order:
    the scope under which whole-state artifacts are keyed."""
    h = hashlib.blake2b(digest_size=16)
    for attr in attributes:
        h.update(attr.encode("utf-8"))
        h.update(b"\x1f")
        h.update(column_fingerprints[attr].encode("ascii"))
        h.update(b"\x1d")
    return h.hexdigest()


class Relation:
    """Read-side API of a relation, shared by all backings.

    Backings implement the primitives — :attr:`num_rows`, :meth:`column`,
    :meth:`column_fingerprint` — and inherit the derived accessors,
    statistics, and fingerprint composition.  Mutation is *not* part of this
    protocol: the in-memory :class:`~repro.dataset.table.Dataset` adds it,
    the sharded backing rejects it.
    """

    schema: Schema

    # -- primitives every backing implements --------------------------- #

    @property
    def num_rows(self) -> int:
        raise NotImplementedError

    def column(self, attr: str) -> Sequence[str]:
        """The full value sequence of one attribute (do not mutate).

        In-memory backings return the backing list; out-of-core backings
        return a lazy view — index and iterate it, but avoid materialising
        it wholesale on large relations (use :meth:`column_chunk`).
        """
        raise NotImplementedError

    def column_fingerprint(self, attr: str) -> str:
        """Stable content hash of one column (see :func:`hash_column`)."""
        raise NotImplementedError

    # -- derived access ------------------------------------------------ #

    @property
    def attributes(self) -> tuple[str, ...]:
        return self.schema.attributes

    @property
    def num_cells(self) -> int:
        return self.num_rows * len(self.schema)

    @property
    def version(self) -> int:
        """Monotonic mutation counter; immutable backings stay at 0."""
        return 0

    def __len__(self) -> int:
        return self.num_rows

    def value(self, cell: Cell) -> str:
        """Observed value ``v_c`` of a cell."""
        return self.column(cell.attr)[cell.row]

    def __getitem__(self, cell: Cell) -> str:
        return self.value(cell)

    def column_chunk(self, attr: str, start: int, stop: int) -> Sequence[str]:
        """The values of one attribute for rows ``[start, stop)``.

        The streaming unit of shard-wise fit paths: backings return the
        cheapest materialisation they have (the in-memory backing returns
        the column itself for the full range; the sharded backing decodes
        only the touched shards).  Treat as read-only.
        """
        column = self.column(attr)
        if start == 0 and stop == self.num_rows:
            return column
        return column[start:stop]

    # -- shard addressing ---------------------------------------------- #

    def shard_spans(self) -> tuple[ShardSpan, ...]:
        """The row shards of this relation, in row order.

        The in-memory backing is a single shard spanning every row, so
        shard-streaming consumers handle both backings with one code path.
        An empty relation has no spans.
        """
        if self.num_rows == 0:
            return ()
        return (ShardSpan(0, 0, self.num_rows),)

    # -- fingerprints --------------------------------------------------- #

    def fingerprint(self) -> str:
        """Stable content hash of the relation (schema order + all values)."""
        return compose_fingerprint(
            self.schema.attributes,
            {a: self.column_fingerprint(a) for a in self.schema.attributes},
        )

    def rows_fingerprint(self, rows: Iterable[int]) -> str:
        """Content hash of the given rows across all attributes.

        It changes only when one of those rows does, whatever happens
        elsewhere in the relation.
        """
        h = hashlib.blake2b(digest_size=16)
        columns = [self.column(a) for a in self.schema.attributes]
        for row in sorted(set(rows)):
            h.update(str(row).encode("ascii"))
            h.update(b"\x1f")
            for column in columns:
                h.update(column[row].encode("utf-8"))
                h.update(b"\x1e")
            h.update(b"\x1d")
        return h.hexdigest()

    # -- row / cell access ---------------------------------------------- #

    def row_dict(self, row: int) -> dict[str, str]:
        """One tuple as an ``{attr: value}`` mapping."""
        if not 0 <= row < self.num_rows:
            raise IndexError(f"row {row} out of range")
        return {a: self.column(a)[row] for a in self.schema.attributes}

    def row_values(self, row: int) -> list[str]:
        """One tuple as a value list in schema order."""
        return [self.column(a)[row] for a in self.schema.attributes]

    def cells(self) -> Iterator[Cell]:
        """Iterate over every cell, attribute-major then row order."""
        for attr in self.schema.attributes:
            for row in range(self.num_rows):
                yield Cell(row, attr)

    def cells_of_row(self, row: int) -> list[Cell]:
        return [Cell(row, attr) for attr in self.schema.attributes]

    # -- statistics used throughout featurisation ------------------------ #

    def value_counts(self, attr: str) -> dict[str, int]:
        """Frequency of each distinct value within one attribute."""
        return dict(Counter(self.column(attr)))

    def domain(self, attr: str) -> list[str]:
        """Distinct values of an attribute, in first-seen order."""
        return list(dict.fromkeys(self.column(attr)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        if self.schema != other.schema or self.num_rows != other.num_rows:
            return False
        # Compare chunk-wise so out-of-core backings never materialise a
        # whole column; chunk size matches the default shard granularity.
        step = 4096
        for attr in self.schema.attributes:
            for start in range(0, self.num_rows, step):
                stop = min(start + step, self.num_rows)
                if list(self.column_chunk(attr, start, stop)) != list(
                    other.column_chunk(attr, start, stop)
                ):
                    return False
        return True

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.num_rows} rows x {len(self.schema)} attrs)"


def check_cell(relation: Relation, row: int, attr: str) -> Cell:
    """The cell ``(row, attr)`` of ``relation``, checked before use.

    The one cell check for cells named from outside — labels and edits
    CSVs, and the server's wire cells and edits: the attribute must be in
    the schema, then the row in range.  ``ValueError`` names the problem.
    """
    if attr not in relation.schema:
        raise ValueError(f"unknown attribute {attr!r}")
    if not 0 <= row < relation.num_rows:
        raise ValueError(f"row {row} out of range")
    return Cell(row, attr)
