"""Unsupervised Naïve Bayes repair model for weak supervision (§5.4).

When the labelled errors in T are too few to learn transformations from, the
paper fits a simple high-precision repair model over the noisy dataset D and
uses its (repair, observed) pairs as transformation examples.

For each cell, the model pretends the value is missing and imputes it from
the other attributes of the tuple:

    P(v | tuple) ∝ P(v) · ∏_{B ∈ partners(A)} P(t[B] | v)

with Laplace smoothing, where ``partners(A)`` are the attributes that
actually carry information about A (normalised mutual information above a
threshold) — imputing from uninformative context is what makes plain Naïve
Bayes over-confident.

A repair is *accepted* only when (§5.4's precision contract):

1. the attribute has at least one informative partner,
2. the posterior of the best candidate clears the confidence threshold,
3. the observed value is **contradicted** by the informative context (it
   co-occurs with the tuple's partner values at most ``max_observed_support``
   times — i.e. only through the tuple itself), and
4. the candidate is **supported** (co-occurs with partner values at least
   ``min_candidate_support`` times).

Recall is free to be low; only precision matters, since the accepted pairs
seed transformation learning (Algorithm 1).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.dataset.table import Cell, Dataset
from repro.dataset.training import TrainingSet
from repro.utils.stats import normalized_mutual_information

#: Rows scored per posterior matrix: bounds its memory on large relations.
_ROW_BLOCK = 4096


@dataclass(frozen=True)
class SuggestedRepair:
    """One accepted repair: the model believes ``observed`` should be ``repair``."""

    cell: Cell
    observed: str
    repair: str
    confidence: float


class NaiveBayesRepairModel:
    """Per-attribute Naïve Bayes imputation over informative co-occurrence."""

    def __init__(
        self,
        confidence_threshold: float = 0.9,
        smoothing: float = 0.1,
        max_candidates: int = 64,
        partner_nmi_threshold: float = 0.15,
        max_observed_support: int = 1,
        min_candidate_support: int = 3,
    ):
        if not 0.0 < confidence_threshold <= 1.0:
            raise ValueError("confidence_threshold must be in (0, 1]")
        self.confidence_threshold = confidence_threshold
        self.smoothing = smoothing
        self.max_candidates = max_candidates
        self.partner_nmi_threshold = partner_nmi_threshold
        self.max_observed_support = max_observed_support
        self.min_candidate_support = min_candidate_support
        self._fitted = False
        self._priors: dict[str, dict[str, float]] = {}
        # (target_attr, target_value, other_attr) -> {other_value -> count}
        self._cooc: dict[tuple[str, str, str], dict[str, int]] = {}
        self._value_counts: dict[str, dict[str, int]] = {}
        self._attributes: tuple[str, ...] = ()
        self._partners: dict[str, list[str]] = {}
        self._num_rows = 0

    def fit(self, dataset: Dataset) -> "NaiveBayesRepairModel":
        """Collect priors, co-occurrence counts, and the partner graph."""
        self._attributes = dataset.attributes
        self._num_rows = dataset.num_rows
        self._value_counts = {a: dataset.value_counts(a) for a in dataset.attributes}
        self._priors = {
            a: {v: c / max(dataset.num_rows, 1) for v, c in counts.items()}
            for a, counts in self._value_counts.items()
        }
        cooc: dict[tuple[str, str, str], dict[str, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        for row in range(dataset.num_rows):
            values = dataset.row_dict(row)
            for attr_a, value_a in values.items():
                for attr_b, value_b in values.items():
                    if attr_a != attr_b:
                        cooc[(attr_a, value_a, attr_b)][value_b] += 1
        self._cooc = {k: dict(v) for k, v in cooc.items()}

        # Informative-partner graph (symmetric by construction of NMI).
        # Near-key attributes are excluded on both sides: two high-
        # cardinality columns have NMI ≈ 1 for the trivial reason that every
        # value pair is unique, and "evidence" from a row identifier is
        # exactly the over-confidence these filters exist to prevent.
        self._partners = {a: [] for a in dataset.attributes}
        max_cardinality = max(2, dataset.num_rows // 2)
        predictive = [
            a
            for a in dataset.attributes
            if len(self._value_counts[a]) <= max_cardinality
        ]
        columns = {a: dataset.column(a) for a in dataset.attributes}
        for i, a in enumerate(predictive):
            for b in predictive[i + 1 :]:
                nmi = normalized_mutual_information(
                    columns[a], columns[b], bias_corrected=True
                )
                if nmi >= self.partner_nmi_threshold:
                    self._partners[a].append(b)
                    self._partners[b].append(a)
        self._fitted = True
        return self

    @property
    def partners(self) -> dict[str, list[str]]:
        """The informative-partner graph (attr → correlated attrs)."""
        if not self._fitted:
            raise RuntimeError("model used before fit()")
        return {a: list(b) for a, b in self._partners.items()}

    def _candidates(self, attr: str) -> list[str]:
        """Candidate values for ``attr``, in first-seen order.

        Above ``max_candidates`` only the most frequent are kept (stable
        on ties): rare values cannot be confident repairs anyway, and this
        bounds the per-cell cost.
        """
        counts = self._value_counts[attr]
        candidates = list(counts)
        if len(candidates) > self.max_candidates:
            candidates = sorted(candidates, key=lambda v: -counts[v])[
                : self.max_candidates
            ]
        return candidates

    def _posteriors(
        self, attr: str, candidates: list[str], dataset: Dataset,
        rows: Sequence[int],
    ) -> np.ndarray:
        """The ``[rows, candidates]`` posterior matrix of ``attr`` given
        each row's partner values.

        Per row: the log prior plus one smoothed log-likelihood term per
        partner, added in partner order, then shifted by the row maximum
        and normalised.  Each term is computed once per distinct partner
        value and gathered to the rows carrying it.
        """
        counts = self._value_counts[attr]
        priors = self._priors[attr]
        support = np.array([counts[c] for c in candidates], dtype=np.float64)
        log_scores = np.empty((len(rows), len(candidates)))
        log_scores[:] = np.log([priors[c] for c in candidates])
        for attr_b in self._partners.get(attr, []):
            column = dataset.column(attr_b)
            positions: dict[str, int] = {}
            inverse = np.array(
                [positions.setdefault(column[r], len(positions)) for r in rows],
                dtype=np.int64,
            )
            cooc = np.zeros((len(candidates), len(positions)))
            for j, candidate in enumerate(candidates):
                for value, count in self._cooc.get((attr, candidate, attr_b), {}).items():
                    k = positions.get(value)
                    if k is not None:
                        cooc[j, k] = count
            denominator = support + self.smoothing * len(self._value_counts[attr_b])
            terms = np.log((cooc + self.smoothing) / denominator[:, None])
            log_scores += terms.T[inverse]
        log_scores -= log_scores.max(axis=1, keepdims=True)
        scores = np.exp(log_scores)
        scores /= scores.sum(axis=1, keepdims=True)
        return scores

    def best_candidates(
        self, attr: str, dataset: Dataset, rows: Sequence[int]
    ) -> list[tuple[str, float]]:
        """``(value, posterior)`` of the most probable candidate for ``attr``
        in each of ``rows`` of ``dataset``, imputed from the partners.

        Ties in posterior go to the greater value.  The model may have been
        fit on another relation with the same attributes (HoloClean's
        repair engine fits on the clean rows and imputes every row).
        """
        if not self._fitted:
            raise RuntimeError("model used before fit()")
        candidates = self._candidates(attr)
        rank = np.empty(len(candidates), dtype=np.int64)
        rank[sorted(range(len(candidates)), key=candidates.__getitem__)] = (
            np.arange(len(candidates))
        )
        best: list[tuple[str, float]] = []
        for start in range(0, len(rows), _ROW_BLOCK):
            scores = self._posteriors(
                attr, candidates, dataset, rows[start : start + _ROW_BLOCK]
            )
            top = scores == scores.max(axis=1, keepdims=True)
            picks = np.where(top, rank, -1).argmax(axis=1)
            best += [
                (candidates[j], scores[i, j]) for i, j in enumerate(picks.tolist())
            ]
        return best

    def _context_support(
        self, attr: str, value: str, dataset: Dataset, row: int
    ) -> int:
        """Max co-occurrence of (attr=value) with the tuple's partner values.

        1 means the value co-occurs with the informative context only through
        the tuple itself (the model was fit on the dirty data, so a tuple
        always supports its own values once).
        """
        support = 0
        for attr_b in self._partners.get(attr, []):
            count = self._cooc.get((attr, value, attr_b), {}).get(
                dataset.column(attr_b)[row], 0
            )
            support = max(support, count)
        return support

    def _accepted(
        self, attr: str, dataset: Dataset, rows: Sequence[int]
    ) -> list[SuggestedRepair]:
        """The accepted repairs among ``rows`` of one attribute."""
        if not self._fitted:
            raise RuntimeError("model used before fit()")
        if not self._partners.get(attr):
            return []  # nothing informative to impute from
        column = dataset.column(attr)
        repairs = []
        for row, (best_value, confidence) in zip(
            rows, self.best_candidates(attr, dataset, rows)
        ):
            observed = column[row]
            if best_value == observed or confidence < self.confidence_threshold:
                continue
            if (
                self._context_support(attr, observed, dataset, row)
                > self.max_observed_support
            ):
                continue
            if (
                self._context_support(attr, best_value, dataset, row)
                < self.min_candidate_support
            ):
                continue
            repairs.append(
                SuggestedRepair(Cell(row, attr), observed, best_value, confidence)
            )
        return repairs

    def suggest_repair(self, cell: Cell, dataset: Dataset) -> SuggestedRepair | None:
        """Accepted repair for one cell, or ``None`` below the bars."""
        repairs = self._accepted(cell.attr, dataset, [cell.row])
        return repairs[0] if repairs else None

    def suggest_repairs(
        self, dataset: Dataset, max_cells: int | None = None
    ) -> list[SuggestedRepair]:
        """Scan the dataset and return every accepted repair.

        ``max_cells`` bounds the scan (cells are visited in a fixed
        attribute-major order, so the bound is deterministic).  Each
        attribute's rows are scored as one posterior matrix.
        """
        repairs = []
        num_rows = dataset.num_rows
        for position, attr in enumerate(dataset.attributes):
            limit = num_rows
            if max_cells is not None:
                limit = min(num_rows, max_cells - position * num_rows)
            if limit <= 0:
                break
            repairs += self._accepted(attr, dataset, range(limit))
        return repairs

    def example_pairs(
        self, dataset: Dataset, max_cells: int | None = None
    ) -> list[tuple[str, str]]:
        """Weakly supervised pairs ``(v̂, v)`` for transformation learning."""
        return [
            (r.repair, r.observed) for r in self.suggest_repairs(dataset, max_cells)
        ]


def channel_examples(
    dataset: Dataset,
    training: TrainingSet,
    *,
    min_error_pairs: int,
    max_cells: int | None,
) -> list[tuple[str, str]]:
    """The example pairs the noisy channel is learned from (§5.4).

    T's labelled error pairs ``(v*, v)``, topped up by the ``(v̂, v)`` pairs
    of a Naive Bayes repair model fitted on ``dataset`` when T holds fewer
    than ``min_error_pairs`` of them.  ``max_cells`` caps the cells the
    model scans (``None`` scans all).
    """
    pairs = training.error_pairs()
    if len(pairs) < min_error_pairs:
        weak = NaiveBayesRepairModel().fit(dataset)
        pairs = pairs + weak.example_pairs(dataset, max_cells=max_cells)
    return pairs
