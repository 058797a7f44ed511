"""The labelled training set ``T = {(c, v_c, v*_c)}`` of §3.1.

A :class:`TrainingSet` is the only supervision a detector receives.  It
provides correct/erroneous partitions, holdout splitting (used for Platt
scaling and the augmentation hyper-parameter α), and the error pairs
``L = {(v*, v)}`` that seed transformation learning (§5.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.dataset.table import Cell
from repro.utils.rng import as_generator


@dataclass(frozen=True, slots=True)
class LabeledCell:
    """One labelled example: observed and true value of one cell."""

    cell: Cell
    observed: str
    true: str

    @property
    def is_error(self) -> bool:
        return self.observed != self.true

    @property
    def label(self) -> int:
        """Paper convention ``E_c``: -1 error, +1 correct."""
        return -1 if self.is_error else 1


class TrainingSet:
    """An ordered collection of :class:`LabeledCell` with split utilities."""

    def __init__(self, examples: Iterable[LabeledCell]):
        self._examples: list[LabeledCell] = list(examples)
        cells = [e.cell for e in self._examples]
        if len(set(cells)) != len(cells):
            raise ValueError("duplicate cells in training set")

    def __len__(self) -> int:
        return len(self._examples)

    def __iter__(self) -> Iterator[LabeledCell]:
        return iter(self._examples)

    def __getitem__(self, idx: int) -> LabeledCell:
        return self._examples[idx]

    @property
    def cells(self) -> list[Cell]:
        return [e.cell for e in self._examples]

    @property
    def correct(self) -> list[LabeledCell]:
        """Examples labelled correct (``v_c == v*_c``)."""
        return [e for e in self._examples if not e.is_error]

    @property
    def errors(self) -> list[LabeledCell]:
        """Examples labelled erroneous."""
        return [e for e in self._examples if e.is_error]

    def error_pairs(self) -> list[tuple[str, str]]:
        """``L = {(v*, v)}`` pairs usable for transformation learning (§5.4)."""
        return [(e.true, e.observed) for e in self.errors]

    def extend(self, more: Iterable[LabeledCell]) -> "TrainingSet":
        """New training set with additional examples appended.

        Cells may repeat across the union (augmented examples are synthetic
        and carry pseudo-cells), so no duplicate check is applied here.
        """
        merged = TrainingSet.__new__(TrainingSet)
        merged._examples = self._examples + list(more)
        return merged

    def split_holdout(
        self, fraction: float, rng: int | np.random.Generator | None = 0
    ) -> tuple["TrainingSet", "TrainingSet"]:
        """Random (train, holdout) split; holdout gets ``fraction`` of examples.

        The paper always keeps 10% of ``T`` as a holdout for hyper-parameter
        tuning and Platt scaling (§6.1).  Stratified so the scarce error class
        appears on both sides whenever it has at least two members.
        """
        gen = as_generator(rng)
        holdout_idx: set[int] = set()
        for group, take in self._holdout_plan(fraction):
            chosen = gen.choice(len(group), size=take, replace=False) if take else []
            holdout_idx.update(group[int(i)] for i in np.atleast_1d(chosen))
        train = [e for i, e in enumerate(self._examples) if i not in holdout_idx]
        hold = [e for i, e in enumerate(self._examples) if i in holdout_idx]
        t1 = TrainingSet.__new__(TrainingSet)
        t1._examples = train
        t2 = TrainingSet.__new__(TrainingSet)
        t2._examples = hold
        return t1, t2

    def holdout_size(self, fraction: float) -> int:
        """How many examples :meth:`split_holdout` holds out at ``fraction``."""
        return sum(take for _, take in self._holdout_plan(fraction))

    def _holdout_plan(self, fraction: float) -> list[tuple[list[int], int]]:
        """Each class's example indices (errors first) with how many the
        holdout takes: ``fraction`` of the class, rounded, and at least one
        of a class of two or more."""
        if not 0.0 <= fraction < 1.0:
            raise ValueError("fraction must be in [0, 1)")
        plan = []
        for group in (
            [i for i, e in enumerate(self._examples) if e.is_error],
            [i for i, e in enumerate(self._examples) if not e.is_error],
        ):
            take = int(round(len(group) * fraction))
            if take == 0 and len(group) >= 2 and fraction > 0:
                take = 1
            plan.append((group, take))
        return plan

    @classmethod
    def from_cells(
        cls,
        cells: Sequence[Cell],
        dirty,  # Dataset
        truth,  # GroundTruth
    ) -> "TrainingSet":
        """Materialise labels for ``cells`` from a dataset + ground truth."""
        return cls(
            LabeledCell(cell=c, observed=dirty.value(c), true=truth.true_value(c))
            for c in cells
        )
