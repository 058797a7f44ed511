"""Dataset-level representation models (§4.1).

These capture compatibility of a cell with the dataset as a whole: how many
denial-constraint violations its tuple participates in, and how far the value
sits from its nearest neighbour in a dataset-wide value embedding.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.constraints.dc import DenialConstraint, decode_constraint, encode_constraint
from repro.constraints.violations import ViolationEngine
from repro.dataset.counts import fd_groups
from repro.dataset.table import Cell, Dataset
from repro.embeddings.corpus import EMPTY_TOKEN, tuple_value_corpus
from repro.features.base import CellBatch, FeatureContext, Featurizer
from repro.features.tuple_level import _RelationEmbeddingFeaturizer


def _constraint_config(constraint: DenialConstraint) -> dict:
    """The artifact-key form of one constraint."""
    return {
        "name": constraint.name,
        "predicates": [
            [p.left_attr, p.op, p.right_attr, p.constant]
            for p in constraint.predicates
        ],
    }


class ConstraintViolationFeaturizer(Featurizer):
    """Per-constraint violation counts for the cell's tuple (Table 7).

    For each constraint σ ∈ Σ the feature is the number of violations of σ
    the tuple participates in, masked to constraints that mention the cell's
    attribute.  For FD-shaped constraints the featurizer maintains group
    indexes so that a *value override* (augmented example) updates the count
    exactly; other constraint shapes keep the fit-time count.

    With an empty Σ (constraints are optional input) the block has zero
    width and the pipeline simply omits it.
    """

    name = "constraint_violations"
    context = FeatureContext.DATASET
    #: The transform reads fit-time counts plus, for overridden cells, the
    #: cell's row — so a block depends on at most the batch rows' contents.
    scope = FeatureContext.TUPLE
    branch = None
    #: Violation counts + FD indexes are pure functions of (relation, Σ):
    #: stored whole as a fitted artifact, keyed on both (Σ enters via
    #: :meth:`artifact_config`).
    artifact_kind = "featurizer/constraint_violations"

    def artifact_config(self) -> dict:
        return {"constraints": [_constraint_config(c) for c in self._constraints]}

    def __init__(self, constraints: Sequence[DenialConstraint]):
        self._constraints = list(constraints)
        self._tuple_counts: np.ndarray | None = None
        # Per FD-shaped constraint: join attrs, residual attr, and the
        # group index {join_key -> {residual_value -> count}}.
        self._fd_indexes: list[dict | None] = []

    def fit(self, dataset: Dataset) -> "ConstraintViolationFeaturizer":
        """Per-tuple violation counts from :class:`ViolationEngine`, plus
        the group table of every FD-shaped constraint
        (:func:`~repro.dataset.counts.fd_groups`), which the transform
        reads to recount a tuple whose cell is overridden."""
        self._tuple_counts = ViolationEngine(self._constraints).tuple_violation_counts(
            dataset
        )
        self._fd_indexes = [
            None
            if shape is None
            else {
                "join_attrs": shape[0],
                "residual_attr": shape[1],
                "groups": fd_groups(dataset, *shape),
            }
            for shape in (c.fd_shape() for c in self._constraints)
        ]
        return self

    def _count_with_override(
        self, index: dict, cell: Cell, value: str, dataset: Dataset
    ) -> float:
        """Exact violation count for a tuple whose ``cell`` is overridden."""
        row_values = dataset.row_dict(cell.row)
        row_values[cell.attr] = value
        key = tuple(row_values[a] for a in index["join_attrs"])
        group = index["groups"].get(key, {})
        same_key = sum(group.values())
        same_residual = group.get(row_values[index["residual_attr"]], 0)
        # Exclude the tuple itself when it is a member of the group (i.e.
        # the override did not move it out of its original group).
        original_key = tuple(dataset.value(Cell(cell.row, a)) for a in index["join_attrs"])
        original_residual = dataset.value(Cell(cell.row, index["residual_attr"]))
        in_original_group = key == original_key
        if in_original_group:
            same_key -= 1
            if row_values[index["residual_attr"]] == original_residual:
                same_residual -= 1
        return float(same_key - same_residual)

    def transform_batch(self, batch: CellBatch) -> np.ndarray:
        self._require_fitted("_tuple_counts")
        dataset = batch.dataset
        out = np.zeros((len(batch), len(self._constraints)))
        overridden = batch.overridden
        rows = np.fromiter((c.row for c in batch.cells), dtype=np.intp, count=len(batch))
        for k, constraint in enumerate(self._constraints):
            # Constraint attribute sets and the per-attribute position index
            # are resolved once per constraint, not once per cell.
            attrs = constraint.attributes()
            index = self._fd_indexes[k]
            touched = [
                idx for attr, idx in batch.by_attr.items() if attr in attrs
            ]
            if not touched:
                continue
            sel = np.concatenate(touched)
            # Without an FD index the override cannot be recomputed exactly;
            # those cells keep the fit-time count (as before the batching).
            plain = sel if index is None else sel[~overridden[sel]]
            # Fit-time counts for unmodified tuples: one vectorised gather.
            in_range = plain[rows[plain] < self._tuple_counts.shape[0]]
            out[in_range, k] = self._tuple_counts[rows[in_range], k]
            if index is not None:
                for i in sel[overridden[sel]]:
                    out[i, k] = self._count_with_override(
                        index, batch.cells[i], batch.resolved[i], dataset
                    )
        # Log-compress: violation counts scale with group sizes.
        return np.log1p(np.maximum(out, 0.0))

    @property
    def dim(self) -> int:
        return len(self._constraints)

    def to_state(self) -> dict:
        return {
            "constraints": [encode_constraint(c) for c in self._constraints],
            "tuple_counts": self._tuple_counts,
            "fd_indexes": [
                None
                if index is None
                else {
                    "join_attrs": index["join_attrs"],
                    "residual_attr": index["residual_attr"],
                    "groups": [
                        [list(k), list(v.items())] for k, v in index["groups"].items()
                    ],
                }
                for index in self._fd_indexes
            ],
        }

    @classmethod
    def _init_args(cls, state) -> dict:
        return {"constraints": [decode_constraint(c) for c in state["constraints"]]}

    def load_state(self, state) -> None:
        fd_indexes = [
            None
            if index is None
            else {
                "join_attrs": list(index["join_attrs"]),
                "residual_attr": index["residual_attr"],
                "groups": {
                    tuple(k): {vk: int(vv) for vk, vv in pairs}
                    for k, pairs in index["groups"]
                },
            }
            for index in state["fd_indexes"]
        ]
        self._tuple_counts = np.array(state["tuple_counts"])
        self._fd_indexes = fd_indexes


class NeighborhoodFeaturizer(_RelationEmbeddingFeaturizer):
    """Distance to the closest other value in a tuple-value embedding.

    A word-embedding model is trained on tuples whose tokens are the raw
    attribute values (Appendix A.1); for each cell the feature is the cosine
    distance to the nearest *other* vocabulary entry.  The intuition: if a
    cell is a typo, some near-identical clean value exists nearby — small
    distance co-occurring with other "suspicious" signals is evidence of
    error, while a unique-but-clean value has no close neighbour.
    """

    name = "neighborhood"
    context = FeatureContext.DATASET
    #: Fits on the whole dataset, but the transform reads only the cell's
    #: resolved value — attribute-scoped.
    scope = FeatureContext.ATTRIBUTE
    branch = None
    _kind = "embedding/tuple-value"
    _corpus = staticmethod(tuple_value_corpus)

    def transform_batch(self, batch: CellBatch) -> np.ndarray:
        self._require_fitted("_model")
        out = np.zeros((len(batch), 1))
        # Distance depends only on the value: compute per unique token, with
        # the per-model memo carrying hits across calls.
        distances = self._memo("distance", self._model)
        unique: dict[str, list[int]] = {}
        for i, value in enumerate(batch.resolved):
            unique.setdefault(value if value else EMPTY_TOKEN, []).append(i)
        for token, idx in unique.items():
            distance = distances.get(token)
            if distance is None:
                distances.stats.misses += 1
                distance = distances[token] = self._model.nearest_neighbor_distance(token)
            out[idx, 0] = distance
        distances.stats.lookups += len(unique)
        return out

    @property
    def dim(self) -> int:
        return 1
