"""FBI: forbidden itemsets via the lift measure (Rammelaere et al. [50]).

A pair of values (a, b) across two attributes is a *forbidden itemset* when
it co-occurs far less than independence predicts — lift =
P(a,b) / (P(a)·P(b)) below a threshold τ — while both values individually
have significant support.  Cells participating in forbidden pairs are
flagged.  The supports and joint counts are read from the relation's
shared co-occurrence table (:func:`repro.dataset.counts.cooccurrence`).

The support requirement is what gives FBI the behaviour §6.2 reports: high
precision when forbidden sets have significant support, inability to catch
errors whose values occur only a handful of times (typos).
"""

from __future__ import annotations

from typing import Sequence

from repro.constraints.dc import DenialConstraint
from repro.dataset.counts import cooccurrence
from repro.dataset.table import Cell, Dataset
from repro.dataset.training import TrainingSet


class ForbiddenItemsetDetector:
    """Unsupervised low-lift co-occurrence detector."""

    def __init__(self, max_lift: float = 0.25, min_support: int = 5):
        if max_lift <= 0:
            raise ValueError("max_lift must be positive")
        self.max_lift = max_lift
        self.min_support = min_support
        self._flagged: set[Cell] | None = None

    def fit(
        self,
        dataset: Dataset,
        training: TrainingSet | None = None,
        constraints: Sequence[DenialConstraint] | None = None,
    ) -> "ForbiddenItemsetDetector":
        n = dataset.num_rows
        position = {a: i for i, a in enumerate(dataset.attributes)}
        joint, counts = cooccurrence(dataset)

        # Forbidden value pairs, one lift per distinct pair of the table.
        forbidden: dict[tuple[str, str], set[tuple[str, str]]] = {}
        for (a, va), buckets in joint.items():
            support_a = counts[(a, va)]
            if support_a < self.min_support:
                continue
            for b, by_value in buckets.items():
                if position[b] < position[a]:
                    continue
                for vb, together in by_value.items():
                    support_b = counts[(b, vb)]
                    if support_b < self.min_support:
                        continue
                    lift = (together / n) / ((support_a / n) * (support_b / n))
                    if lift < self.max_lift:
                        forbidden.setdefault((a, b), set()).add((va, vb))

        flagged: set[Cell] = set()
        for (a, b), pairs in forbidden.items():
            for row, pair in enumerate(zip(dataset.column(a), dataset.column(b))):
                if pair in pairs:
                    flagged.update((Cell(row, a), Cell(row, b)))
        self._flagged = flagged
        return self

    def predict_error_cells(self, cells: Sequence[Cell] | None = None) -> set[Cell]:
        if self._flagged is None:
            raise RuntimeError("detector used before fit()")
        if cells is None:
            return set(self._flagged)
        return self._flagged & set(cells)
