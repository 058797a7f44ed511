"""Optional extra representation models beyond the paper's Table 7 set.

§4.1: "Our architecture can trivially accommodate additional models or more
complex variants of the current models."  These two are the variants we
found most useful beyond the paper's bare-bone set; they are opt-in so the
default pipeline stays exactly the paper's Table 7.

Public API
----------

:class:`ValueLengthFeaturizer`
    Z-scored value length per attribute.  Insertion/deletion typos shift a
    value's length away from its column's distribution; cheap and
    surprisingly discriminative on fixed-width columns (zip codes, phone
    numbers, ids).  One output dimension; ``branch=None`` (feeds the wide
    numeric block).

:class:`TokenFrequencyFeaturizer`
    Frequency of the value's *rarest word token* within its attribute,
    Laplace-smoothed (``alpha``) and log-scaled.  Complements the character
    3-gram format model at the word level: a swapped-in token that is valid
    characters-wise but alien to the column surfaces here.  One output
    dimension; ``branch=None``.

Both follow the standard :class:`~repro.features.base.Featurizer` lifecycle
— ``fit(dataset)`` learns per-attribute statistics, then the batched
``transform_batch`` / ``transform`` produce ``[n_cells, 1]`` blocks — and
honour value overrides.

Usage::

    from repro.features import FeaturePipeline, default_pipeline
    from repro.features.extra import ValueLengthFeaturizer, TokenFrequencyFeaturizer

    base = default_pipeline(constraints)
    pipeline = FeaturePipeline(
        base.featurizers + [ValueLengthFeaturizer(), TokenFrequencyFeaturizer()]
    ).fit(dataset)

Both are registered ``featurizer`` components (keys ``value_length`` and
``token_frequency``), so a :class:`~repro.spec.DetectorSpec` can add them
by name, and both carry their fitted state (``to_state``/``from_state``),
so detectors using them save and load like the Table 7 models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dataset.table import Dataset
from repro.features.attribute import _ColumnCountsFeaturizer
from repro.features.base import CellBatch, ColumnScopedFeaturizer, FeatureContext
from repro.registry import ComponentError, register
from repro.text.tokenize import word_tokens


@dataclass(frozen=True)
class TokenFrequencyConfig:
    """Typed config of :class:`TokenFrequencyFeaturizer` (registry key
    ``token_frequency``)."""

    alpha: float = 0.5

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha!r}")


class ValueLengthFeaturizer(ColumnScopedFeaturizer):
    """Z-score of the cell value's length within its attribute."""

    name = "value_length"
    context = FeatureContext.ATTRIBUTE
    scope = FeatureContext.ATTRIBUTE
    state_attribute = "_stats"
    branch = None

    def __init__(self) -> None:
        self._stats: dict[str, tuple[float, float]] | None = None

    def _fit_column(self, dataset: Dataset, attr: str) -> None:
        lengths = np.array([len(v) for v in dataset.column(attr)], dtype=np.float64)
        mean = float(lengths.mean()) if lengths.size else 0.0
        std = float(lengths.std()) if lengths.size else 0.0
        self._stats[attr] = (mean, std if std > 1e-9 else 1.0)

    def transform_batch(self, batch: CellBatch) -> np.ndarray:
        self._require_fitted("_stats")
        out = np.zeros((len(batch), 1))
        for attr, idx in batch.by_attr.items():
            mean, std = self._stats[attr]
            lengths = np.fromiter(
                (len(batch.resolved[i]) for i in idx), dtype=np.float64, count=len(idx)
            )
            out[idx, 0] = (lengths - mean) / std
        return out

    @property
    def dim(self) -> int:
        return 1

    def to_state(self) -> dict:
        return {"stats": {a: list(s) for a, s in self._stats.items()}}

    def load_state(self, state) -> None:
        self._stats = {a: (float(m), float(s)) for a, (m, s) in state["stats"].items()}


class TokenFrequencyFeaturizer(_ColumnCountsFeaturizer):
    """Frequency of the rarest word token of the cell within its attribute.

    Log-scaled relative frequency with Laplace smoothing; values with no
    word tokens (pure punctuation / empty) get the frequency of the empty
    sentinel, which is itself learned from the column.
    """

    name = "token_frequency"
    context = FeatureContext.ATTRIBUTE
    scope = FeatureContext.ATTRIBUTE
    branch = None

    _EMPTY = "<no-token>"

    def __init__(self, alpha: float = 0.5):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        super().__init__()
        self.alpha = alpha

    def _fit_column(self, dataset: Dataset, attr: str) -> None:
        counts: dict[str, int] = {}
        total = 0
        for value in dataset.column(attr):
            tokens = word_tokens(value) or [self._EMPTY]
            for token in tokens:
                counts[token] = counts.get(token, 0) + 1
                total += 1
        self._counts[attr] = counts
        self._totals[attr] = total

    def _min_token_logfreq(self, attr: str, value: str) -> float:
        counts = self._counts[attr]
        total = self._totals[attr]
        vocab = len(counts) + 1
        tokens = word_tokens(value) or [self._EMPTY]
        freqs = [
            (counts.get(t, 0) + self.alpha) / (total + self.alpha * vocab) for t in tokens
        ]
        return float(np.log(min(freqs)))

    def transform_batch(self, batch: CellBatch) -> np.ndarray:
        self._require_fitted("_counts")
        out = np.zeros((len(batch), 1))
        for attr, by_value in batch.value_groups.items():
            for value, idx in by_value.items():
                out[idx, 0] = self._min_token_logfreq(attr, value)
        return out

    @property
    def dim(self) -> int:
        return 1

    def to_state(self) -> dict:
        return {"alpha": self.alpha, **super().to_state()}

    @classmethod
    def _init_args(cls, state) -> dict:
        return {"alpha": state["alpha"]}


# --------------------------------------------------------------------- #
# Registry wiring: the opt-in models register as ordinary "featurizer"
# components, so a DetectorSpec can add them by name — e.g.
# ``[[featurizers]] name = "value_length"`` — with zero imperative code.
# --------------------------------------------------------------------- #


@register(
    "featurizer", "value_length",
    description="z-scored value length within the attribute (opt-in)",
)
def _value_length(params, ctx=None) -> ValueLengthFeaturizer:
    if params:
        raise ComponentError(f"takes no parameters, got {sorted(params)}")
    return ValueLengthFeaturizer()


@register(
    "featurizer", "token_frequency",
    config=TokenFrequencyConfig,
    description="log-frequency of the value's rarest word token (opt-in)",
)
def _token_frequency(cfg: TokenFrequencyConfig, ctx=None) -> TokenFrequencyFeaturizer:
    return TokenFrequencyFeaturizer(alpha=cfg.alpha)
