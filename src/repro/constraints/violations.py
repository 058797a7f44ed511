"""Violation engine: count DC violations per tuple and per relation.

The dataset-level representation exports, for every cell, the number of
violations of each constraint that the cell's *tuple* participates in
(Table 7: "#constraints" dimensions); the CV baseline flags the cells of
violating tuples directly, and α-noisy discovery reads satisfaction ratios.

Evaluation strategy: an FD-shaped constraint (everything the benchmark
datasets use, and every discovery candidate) is counted from its group
table (:func:`repro.dataset.counts.fd_groups`), enumerating no tuple pair:
a tuple in a join group of ``n`` holding ``m`` copies of its residual value
violates ``n - m`` pairs, and the group ``(n² - Σ m_v²) / 2``.  Other
equality joins are hash-joined, checking only within-group pairs against
the residual predicates; constraints with no usable join key fall back to
a bounded pairwise scan so pathological inputs stay tractable.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

import numpy as np

from repro.constraints.dc import DenialConstraint
from repro.dataset.counts import fd_groups
from repro.dataset.relation import Cell, Relation

#: Bound on the pairwise scan for join-free constraints: relations with more
#: tuple pairs are checked on this many deterministically sampled pairs.
_PAIR_SCAN_LIMIT = 2_000_000


class ViolationEngine:
    """Evaluates a fixed constraint set against datasets.

    The engine is stateless across datasets; construct once per Σ and reuse.
    """

    def __init__(self, constraints: Sequence[DenialConstraint]):
        self.constraints = list(constraints)

    # ------------------------------------------------------------------ #
    # Core evaluation
    # ------------------------------------------------------------------ #

    def tuple_violation_counts(self, dataset: Relation) -> np.ndarray:
        """``[num_rows, num_constraints]`` array of violation counts.

        Entry ``(i, k)`` is the number of tuple pairs involving row ``i``
        that violate constraint ``k``.
        """
        counts = np.zeros((dataset.num_rows, len(self.constraints)), dtype=np.float64)
        for k, constraint in enumerate(self.constraints):
            shape = constraint.fd_shape()
            if shape is None:
                for row_a, row_b in self._violating_pairs(dataset, constraint):
                    counts[row_a, k] += 1
                    counts[row_b, k] += 1
                continue
            join_attrs, residual_attr = shape
            groups = fd_groups(dataset, join_attrs, residual_attr)
            totals = {key: sum(group.values()) for key, group in groups.items()}
            for span in dataset.shard_spans():
                keys = zip(*(dataset.column_chunk(a, span.start, span.stop) for a in join_attrs))
                residuals = dataset.column_chunk(residual_attr, span.start, span.stop)
                counts[span.start : span.stop, k] = [
                    totals[key] - groups[key][value] for key, value in zip(keys, residuals)
                ]
        return counts

    def _violating_pairs(self, dataset: Relation, constraint: DenialConstraint):
        """The violating tuple pairs of a constraint that is not FD-shaped."""
        join_attrs = constraint.equality_join_attrs()
        if join_attrs:
            yield from self._hash_join_pairs(dataset, constraint, join_attrs)
        else:
            yield from self._scan_pairs(dataset, constraint)

    def _hash_join_pairs(
        self, dataset: Relation, constraint: DenialConstraint, join_attrs: list[str]
    ):
        groups: dict[tuple[str, ...], list[int]] = defaultdict(list)
        columns = [dataset.column(a) for a in join_attrs]
        for row in range(dataset.num_rows):
            key = tuple(col[row] for col in columns)
            groups[key].append(row)
        residual = constraint.residual_predicates()
        for rows in groups.values():
            if len(rows) < 2:
                continue
            dicts = {r: dataset.row_dict(r) for r in rows}
            for i, row_a in enumerate(rows):
                for row_b in rows[i + 1 :]:
                    ta, tb = dicts[row_a], dicts[row_b]
                    # DCs are over ordered pairs; check both orientations.
                    if all(p.holds(ta, tb) for p in residual) or all(
                        p.holds(tb, ta) for p in residual
                    ):
                        yield row_a, row_b

    def _scan_pairs(self, dataset: Relation, constraint: DenialConstraint):
        n = dataset.num_rows
        total_pairs = n * (n - 1) // 2
        dicts = [dataset.row_dict(r) for r in range(n)]
        if total_pairs <= _PAIR_SCAN_LIMIT:
            for i in range(n):
                for j in range(i + 1, n):
                    if constraint.violated_by(dicts[i], dicts[j]) or constraint.violated_by(
                        dicts[j], dicts[i]
                    ):
                        yield i, j
            return
        # Deterministic subsample of pairs for very large join-free constraints.
        rng = np.random.default_rng(0)
        for _ in range(_PAIR_SCAN_LIMIT):
            i, j = rng.integers(0, n, size=2)
            if i == j:
                continue
            if constraint.violated_by(dicts[i], dicts[j]):
                yield int(min(i, j)), int(max(i, j))

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #

    def violating_cells(self, dataset: Relation) -> set[Cell]:
        """Cells flagged by the CV detector: all participating cells."""
        tuple_counts = self.tuple_violation_counts(dataset)
        flagged: set[Cell] = set()
        for k, constraint in enumerate(self.constraints):
            rows = np.nonzero(tuple_counts[:, k] > 0)[0]
            attrs = constraint.attributes()
            for row in rows:
                for attr in attrs:
                    if attr in dataset.schema:
                        flagged.add(Cell(int(row), attr))
        return flagged

    def satisfaction_ratio(self, dataset: Relation, constraint: DenialConstraint) -> float:
        """Fraction of tuple pairs that satisfy (do not violate) ``constraint``.

        This is the α of Definition A.1; used by noisy-constraint discovery.
        """
        n = dataset.num_rows
        total_pairs = n * (n - 1) // 2
        if total_pairs == 0:
            return 1.0
        shape = constraint.fd_shape()
        if shape is None:
            violating = sum(1 for _ in self._violating_pairs(dataset, constraint))
        else:
            violating = sum(
                sum(group.values()) ** 2 - sum(m * m for m in group.values())
                for group in fd_groups(dataset, *shape).values()
            ) // 2
        return 1.0 - violating / total_pairs
