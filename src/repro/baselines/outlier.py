"""OD: correlation-based outlier detection (§6.1).

For a cell of attribute A, the method looks at attributes correlated with A
and checks the pairwise conditional distributions: if the observed value is
improbable given *every* correlated attribute's value in the tuple, the cell
is an outlier.  Correlation between attributes is measured with normalised
mutual information on the noisy data itself.  The conditional of ``t[A]=v``
given a correlated attribute's value ``t[B]=w`` is
``joint[(B, w)][A][v] / count(B=w)``, read from the relation's shared
co-occurrence table (:func:`repro.dataset.counts.cooccurrence`): rows
carrying both values over rows carrying ``w``.

Matches the paper's observed behaviour: high precision (a value contradicted
by all correlated evidence is almost surely wrong), recall that swings with
how strongly the dataset's errors distort co-occurrence.
"""

from __future__ import annotations

from typing import Sequence

from repro.constraints.dc import DenialConstraint
from repro.dataset.counts import cooccurrence
from repro.dataset.table import Cell, Dataset
from repro.dataset.training import TrainingSet
from repro.utils.stats import normalized_mutual_information

__all__ = ["OutlierDetector", "normalized_mutual_information"]


class OutlierDetector:
    """Unsupervised conditional-probability outlier detector."""

    def __init__(self, correlation_threshold: float = 0.35, probability_threshold: float = 0.05):
        self.correlation_threshold = correlation_threshold
        self.probability_threshold = probability_threshold
        self._flagged: set[Cell] | None = None

    def fit(
        self,
        dataset: Dataset,
        training: TrainingSet | None = None,
        constraints: Sequence[DenialConstraint] | None = None,
    ) -> "OutlierDetector":
        attrs = dataset.attributes
        columns = {a: dataset.column(a) for a in attrs}

        # Correlated-attribute graph via NMI.
        correlated: dict[str, list[str]] = {a: [] for a in attrs}
        for i, a in enumerate(attrs):
            for b in attrs[i + 1 :]:
                if normalized_mutual_information(columns[a], columns[b]) >= self.correlation_threshold:
                    correlated[a].append(b)
                    correlated[b].append(a)

        joint, counts = cooccurrence(dataset)
        flagged: set[Cell] = set()
        for row in range(dataset.num_rows):
            for a in attrs:
                if not correlated[a]:
                    continue
                v = columns[a][row]
                # Improbable under every correlated attribute => outlier.
                max_conditional = 0.0
                for b in correlated[a]:
                    w = columns[b][row]
                    p = joint[(b, w)][a][v] / counts[(b, w)]
                    max_conditional = max(max_conditional, p)
                if max_conditional < self.probability_threshold:
                    flagged.add(Cell(row, a))
        self._flagged = flagged
        return self

    def predict_error_cells(self, cells: Sequence[Cell] | None = None) -> set[Cell]:
        if self._flagged is None:
            raise RuntimeError("detector used before fit()")
        if cells is None:
            return set(self._flagged)
        return self._flagged & set(cells)
