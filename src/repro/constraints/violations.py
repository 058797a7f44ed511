"""Violation engine: count DC violations per tuple and per cell.

The dataset-level representation exports, for every cell, the number of
violations of each constraint that the cell's *tuple* participates in
(Table 7: "#constraints" dimensions); the CV baseline flags the cells of
violating tuples directly.

Evaluation strategy: constraints whose predicates include same-attribute
equality joins (the FD-shaped fragment, which is everything the benchmark
datasets use) are evaluated with a hash join — tuples are grouped by the
join key, and only within-group pairs are checked against the residual
predicates.  Constraints with no usable join key fall back to a bounded
pairwise scan so pathological inputs stay tractable.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

import numpy as np

from repro.constraints.dc import DenialConstraint
from repro.dataset.table import Cell, Dataset

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

    def tuple_violation_counts(self, dataset: Dataset) -> np.ndarray:
        """``[num_rows, num_constraints]`` array of violation counts.

        Entry ``(i, k)`` is the number of tuple pairs involving row ``i``
        that violate constraint ``k``.
        """
        counts = np.zeros((dataset.num_rows, len(self.constraints)), dtype=np.float64)
        for k, constraint in enumerate(self.constraints):
            for row_a, row_b in self._violating_pairs(dataset, constraint):
                counts[row_a, k] += 1
                counts[row_b, k] += 1
        return counts

    def _violating_pairs(self, dataset: Dataset, constraint: DenialConstraint):
        join_attrs = constraint.equality_join_attrs()
        if join_attrs:
            yield from self._hash_join_pairs(dataset, constraint, join_attrs)
        else:
            yield from self._scan_pairs(dataset, constraint)

    def _hash_join_pairs(
        self, dataset: Dataset, constraint: DenialConstraint, join_attrs: list[str]
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

    def _scan_pairs(self, dataset: Dataset, constraint: DenialConstraint):
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

    def cell_violation_matrix(self, dataset: Dataset) -> dict[str, np.ndarray]:
        """Per-attribute view of tuple violation counts.

        A cell inherits its tuple's violation count for constraint ``k`` only
        when its attribute participates in constraint ``k`` — the convention
        the CV detector uses ("all cells in a group of cells that participate
        in a violation", §6.2) and the feature the dataset-level context
        exports.
        Returns ``{attr: [num_rows, num_constraints]}``.
        """
        tuple_counts = self.tuple_violation_counts(dataset)
        result: dict[str, np.ndarray] = {}
        for attr in dataset.attributes:
            mask = np.array(
                [1.0 if attr in c.attributes() else 0.0 for c in self.constraints]
            )
            result[attr] = tuple_counts * mask
        return result

    def violating_cells(self, dataset: Dataset) -> set[Cell]:
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

    def satisfaction_ratio(self, dataset: Dataset, constraint: DenialConstraint) -> float:
        """Fraction of tuple pairs that satisfy (do not violate) ``constraint``.

        This is the α of Definition A.1; used by noisy-constraint discovery.
        """
        n = dataset.num_rows
        total_pairs = n * (n - 1) // 2
        if total_pairs == 0:
            return 1.0
        violating = sum(1 for _ in self._violating_pairs(dataset, constraint))
        return 1.0 - violating / total_pairs
