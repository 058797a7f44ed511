"""CSV input and output for the relational substrate.

Every CSV the system reads streams through one record reader,
:func:`csv_records` — the relation (:func:`read_csv`, and
:meth:`~repro.dataset.sharded.ShardedDataset.from_csv` at constant memory),
the labels CSV (:func:`read_labels`: ``row,attribute,true_value``, one line
per verified cell) and the edits CSV (:func:`read_edits`, or
:func:`read_edit_rows` when the relation lives elsewhere:
``row,attribute,value``, one line per repair).  So they all agree on what a
well-formed file is — a header with unique names, every row exactly as wide
as the header, blank lines skipped — and every problem is one
``ValueError`` naming ``path:line``.  Labels and edits name their cells
through :func:`~repro.dataset.relation.check_cell`, the server's check too.
"""

from __future__ import annotations

import csv
from collections import Counter
from pathlib import Path
from typing import Iterator

from repro.dataset.relation import Cell, Relation, check_cell
from repro.dataset.table import Dataset
from repro.dataset.training import LabeledCell, TrainingSet


def csv_records(path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """Stream a headered CSV as ``(line, fields)`` pairs, the header first.

    The header must be present and its names unique; every later row must
    be exactly as wide as the header; blank lines are skipped; a UTF-8
    byte-order mark before the header is dropped.  Violations,
    undecodable text and ``csv`` errors (an oversized field) raise
    ``ValueError`` naming ``path:line``.  Rows are yielded as they are
    read, so the caller's memory stays constant.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as f:
        reader = csv.reader(f)
        header: list[str] | None = None
        try:
            for fields in reader:
                if not fields:
                    continue
                line = reader.line_num
                if header is None:
                    header = fields
                    duplicates = sorted(n for n, k in Counter(fields).items() if k > 1)
                    if duplicates:
                        raise ValueError(
                            f"{path}:{line}: duplicate column names {duplicates}"
                        )
                elif len(fields) != len(header):
                    raise ValueError(
                        f"{path}:{line}: expected {len(header)} fields like the "
                        f"header, got {len(fields)}"
                    )
                yield line, fields
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if header is None:
        raise ValueError(f"{path} is empty — need a header row")


def read_csv(path: str | Path, missing_token: str = "") -> Dataset:
    """Load a CSV with a header row into a :class:`Dataset`.

    Empty fields become ``missing_token`` (HoloDetect treats missing values as
    just another string value; the paper's datasets use tokens like ``<NaN>``).
    """
    records = csv_records(path)
    _, header = next(records)
    return Dataset.from_rows(
        header,
        ([f if f != "" else missing_token for f in fields] for _, fields in records),
    )


def write_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset (with header) to CSV."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(dataset.attributes)
        for row in range(dataset.num_rows):
            writer.writerow(dataset.row_values(row))


def _cell_records(
    path: str | Path, kind: str, value_column: str, relation: Relation | None
) -> Iterator[tuple[Cell, str]]:
    """``(cell, value)`` per line of a ``row,attribute,<value_column>`` CSV.

    With a ``relation`` every cell is checked against it; without one only
    the row index is parsed.
    """
    columns = ("row", "attribute", value_column)
    records = csv_records(path)
    line, header = next(records)
    if not set(columns) <= set(header):
        raise ValueError(
            f"{path}:{line}: {kind} CSV needs columns {sorted(columns)}, got {header}"
        )
    positions = [header.index(name) for name in columns]
    for line, fields in records:
        raw_row, attr, value = (fields[i] for i in positions)
        try:
            try:
                row = int(raw_row)
            except ValueError:
                raise ValueError(f"row {raw_row!r} is not an integer") from None
            cell = Cell(row, attr) if relation is None else check_cell(relation, row, attr)
        except ValueError as exc:
            raise ValueError(f"{path}:{line}: {exc}") from None
        yield cell, value


def read_labels(path: str | Path, relation: Relation) -> TrainingSet:
    """Read a ``row,attribute,true_value`` labels CSV into a TrainingSet."""
    return TrainingSet(
        [
            LabeledCell(cell, observed=relation.value(cell), true=true)
            for cell, true in _cell_records(path, "labels", "true_value", relation)
        ]
    )


def read_edits(path: str | Path, relation: Relation) -> dict[Cell, str]:
    """Read a ``row,attribute,value`` edits CSV into a cell→value mapping
    (later lines win on a repeated cell)."""
    return dict(_cell_records(path, "edits", "value", relation))


def read_edit_rows(path: str | Path) -> list[tuple[int, str, str]]:
    """The ``(row, attribute, value)`` lines of an edits CSV, unchecked.

    For edits bound for a relation this process does not hold (a served
    tenant's): the holder checks rows and attributes.
    """
    return [
        (cell.row, cell.attr, value)
        for cell, value in _cell_records(path, "edits", "value", None)
    ]


def open_relation(path: str | Path, missing_token: str = "") -> Relation:
    """Open either a CSV file or a shard directory as a relation.

    A directory containing ``manifest.json`` opens as an out-of-core
    :class:`~repro.dataset.sharded.ShardedDataset`; anything else is read as
    a headered CSV into an in-memory :class:`Dataset`.  A library helper:
    the CLI's ``--input`` options take CSV files only.
    """
    path = Path(path)
    if path.is_dir():
        from repro.dataset.sharded import ShardedDataset

        return ShardedDataset(path)
    return read_csv(path, missing_token=missing_token)
