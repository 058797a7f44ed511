"""HC: a compact HoloClean-style repair engine used as a detector (§6.1).

HoloClean [55] repairs data in three steps: detect noisy cells (here: the
cells CV flags), build a candidate domain per noisy cell, and pick the most
probable candidate under a statistical model learned from the clean part of
the data.  The HC *detector* then flags exactly the cells whose value the
repair engine changed — trading CV's recall for precision, the behaviour
Table 2 exercises.

Our statistical model is a Naïve Bayes pseudo-likelihood over co-occurrence
with the tuple's other attributes, fit on tuples untouched by violations
(HoloClean's "learn from clean cells"), combined with a violation-reduction
check: a repair is accepted only when it strictly reduces the tuple's
constraint violations.  Both counts come from
:class:`~repro.constraints.violations.ViolationEngine`: the noisy cells
from its per-tuple counts, and the check from the constraint featurizer,
whose fit takes the same counts and whose override transform recounts a
tuple from each FD's group table (:func:`repro.dataset.counts.fd_groups`),
so the check is O(1) per candidate.
"""

from __future__ import annotations

from typing import Sequence

from repro.augmentation.naive_bayes import NaiveBayesRepairModel
from repro.constraints.dc import DenialConstraint
from repro.constraints.violations import ViolationEngine
from repro.dataset.table import Cell, Dataset
from repro.dataset.training import TrainingSet
from repro.features.dataset_level import ConstraintViolationFeaturizer


class HoloCleanDetector:
    """Errors = cells whose value the repair engine changes."""

    def __init__(self, repair_confidence: float = 0.5):
        self.repair_confidence = repair_confidence
        self._flagged: set[Cell] | None = None

    def fit(
        self,
        dataset: Dataset,
        training: TrainingSet | None = None,
        constraints: Sequence[DenialConstraint] | None = None,
    ) -> "HoloCleanDetector":
        constraints = list(constraints or [])
        engine = ViolationEngine(constraints)
        noisy_cells = engine.violating_cells(dataset)
        if not noisy_cells:
            self._flagged = set()
            return self

        # Learn the repair model from rows not involved in any violation —
        # when almost everything is dirty (low-precision CV, as on Soccer)
        # fall back to all rows, which is exactly the failure mode §6.2
        # observes there.
        noisy_rows = {c.row for c in noisy_cells}
        clean_rows = [r for r in range(dataset.num_rows) if r not in noisy_rows]
        if len(clean_rows) >= max(20, dataset.num_rows // 10):
            reference = Dataset.from_rows(
                dataset.attributes, [dataset.row_values(r) for r in clean_rows]
            )
        else:
            reference = dataset
        model = NaiveBayesRepairModel(confidence_threshold=self.repair_confidence)
        model.fit(reference)

        # The featurizer's FD indexes answer "how many violations would this
        # tuple have if this one cell held value v" in O(1).
        violation_counter = ConstraintViolationFeaturizer(constraints).fit(dataset)

        noisy_rows_of: dict[str, list[int]] = {}
        for cell in noisy_cells:
            noisy_rows_of.setdefault(cell.attr, []).append(cell.row)
        flagged: set[Cell] = set()
        for attr, rows in noisy_rows_of.items():
            column = dataset.column(attr)
            for row, (best, confidence) in zip(
                rows, model.best_candidates(attr, dataset, rows)
            ):
                if best == column[row] or confidence < self.repair_confidence:
                    continue
                cell = Cell(row, attr)
                before = violation_counter.transform([cell], dataset).sum()
                after = violation_counter.transform(
                    [cell], dataset, values=[best]
                ).sum()
                if after < before:
                    flagged.add(cell)
        self._flagged = flagged
        return self

    def predict_error_cells(self, cells: Sequence[Cell] | None = None) -> set[Cell]:
        if self._flagged is None:
            raise RuntimeError("detector used before fit()")
        if cells is None:
            return set(self._flagged)
        return self._flagged & set(cells)
