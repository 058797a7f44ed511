"""Relational dataset substrate.

HoloDetect operates on cell-level observations of a relation.  This package
provides the relation protocol (:class:`Relation`) with two backings — the
in-memory :class:`Dataset` and the out-of-core :class:`ShardedDataset` —
cell addressing (:class:`Cell`), ground-truth bookkeeping
(:class:`GroundTruth`), and the labelled training set abstraction
(:class:`TrainingSet`) that the paper calls ``T = {(c, v_c, v*_c)}``.
"""

from repro.dataset.relation import Relation, ShardSpan, check_cell
from repro.dataset.table import Cell, Dataset, DatasetDelta, Schema
from repro.dataset.sharded import ShardedDataset, ShardWriter
from repro.dataset.ground_truth import GroundTruth
from repro.dataset.training import LabeledCell, TrainingSet
from repro.dataset.loader import (
    csv_records, open_relation, read_csv, read_edit_rows, read_edits, read_labels, write_csv,
)

__all__ = [
    "Cell",
    "Dataset",
    "DatasetDelta",
    "Relation",
    "Schema",
    "ShardSpan",
    "ShardedDataset",
    "ShardWriter",
    "GroundTruth",
    "LabeledCell",
    "TrainingSet",
    "check_cell",
    "csv_records",
    "open_relation",
    "read_csv",
    "read_edit_rows",
    "read_edits",
    "read_labels",
    "write_csv",
]
