"""Attribute-level representation models (§4.1, Table 7).

All models here are per-attribute: a separate statistic (or embedding) is
learned for every column, because "Zip Code" and "City" have entirely
different value, format, and frequency distributions.

Every transform is batched (see :class:`~repro.features.base.CellBatch`):
per-value statistics are computed once per *unique* value of a column and
scattered to all cells carrying it, which is where most of the speedup of
the batched engine comes from — real columns are heavily repetitive.  The
embedding and n-gram models also memoise value → vector (or log-probability
row) per column model across calls, in a
:class:`~repro.features.cache.FeatureCache` each
(:meth:`~repro.features.base.Featurizer._memo`), so a served relation whose
values repeat from request to request computes each value once per fit of
its column.

All models here declare ``scope = ATTRIBUTE`` — their transforms read
nothing beyond the cell's own (possibly overridden) value and the fitted
per-column statistics — and implement column-scoped :meth:`refresh`: after a
batch edit, only the models of the touched columns are refitted.
"""

from __future__ import annotations

import numpy as np

from repro.dataset.table import Dataset, DatasetDelta
from repro.embeddings.corpus import char_corpus, word_corpus
from repro.embeddings.fasttext import FastTextEmbedding
from repro.features.base import (
    CellBatch,
    ColumnScopedFeaturizer,
    EmbeddingFeaturizer,
    FeatureContext,
    Featurizer,
)
from repro.text.ngrams import NGramModel, SymbolicNGramModel
from repro.text.tokenize import char_tokens, word_tokens


class _ColumnEmbeddingFeaturizer(EmbeddingFeaturizer, ColumnScopedFeaturizer):
    """Shared machinery of the per-column FastText featurizers.

    One embedding model per attribute, trained on the column's
    ``_view``-token corpus and keyed on the column's content fingerprint,
    so an edit to one column retrains (or re-fetches) only that column's
    model, and only that column's transform memo starts over.
    """

    _models: dict[str, FastTextEmbedding] | None = None

    @staticmethod
    def _corpus(dataset: Dataset, attr: str) -> list[list[str]]:
        raise NotImplementedError

    @staticmethod
    def _tokens(value: str) -> list[str]:
        raise NotImplementedError

    def _fit_column(self, dataset: Dataset, attr: str) -> None:
        # Default n-gram range: a single-character token "c" is wrapped
        # to "<c>" whose only 3-gram is itself, giving each character a
        # dedicated bucket.  (n_min=1 would make every character share
        # the "<" and ">" buckets, which destabilises training.)
        self._models[attr] = self._fit_embedding(
            f"{self.name}/{attr}",
            dataset.column_fingerprint(attr),
            lambda: self._corpus(dataset, attr),
            meta={"column": attr},
        )

    def transform_batch(self, batch: CellBatch) -> np.ndarray:
        self._require_fitted("_models")
        out = np.zeros((len(batch), self._dim))
        for attr, by_value in batch.value_groups.items():
            model = self._models[attr]
            vectors = self._memo(attr, model)
            for value, idx in by_value.items():
                vector = vectors.get(value)
                if vector is None:
                    vectors.stats.misses += 1
                    tokens = self._tokens(value) or ["<empty>"]
                    vector = vectors[value] = model.sentence_vector(tokens)
                out[idx] = vector
            vectors.stats.lookups += len(by_value)
        return out

    @property
    def dim(self) -> int:
        return self._dim

    def _embedding_states(self) -> dict:
        return {"models": {a: m.to_state() for a, m in self._models.items()}}

    def load_state(self, state) -> None:
        self._models = {
            a: FastTextEmbedding.from_state(m) for a, m in state["models"].items()
        }


class CharEmbeddingFeaturizer(_ColumnEmbeddingFeaturizer):
    """FastText embedding of the cell value as a *character* sequence.

    One embedding model per attribute; the cell feature is the mean of its
    character vectors.  Output feeds the ``char`` learnable branch.
    """

    name = "char_embedding"
    context = FeatureContext.ATTRIBUTE
    scope = FeatureContext.ATTRIBUTE
    branch = "char"
    _kind = "embedding/char"
    _view = "char"
    _corpus = staticmethod(char_corpus)
    _tokens = staticmethod(char_tokens)


class WordEmbeddingFeaturizer(_ColumnEmbeddingFeaturizer):
    """FastText embedding of the cell value as a *word* sequence.

    One model per attribute; cell feature is the mean of its word vectors.
    Output feeds the ``word`` learnable branch.  Subword n-grams give typo'd
    words vectors close to — but measurably offset from — their clean forms.
    """

    name = "word_embedding"
    context = FeatureContext.ATTRIBUTE
    scope = FeatureContext.ATTRIBUTE
    branch = "word"
    _kind = "embedding/word"
    _view = "word"
    _corpus = staticmethod(word_corpus)
    _tokens = staticmethod(word_tokens)


class _NGramFeaturizer(ColumnScopedFeaturizer):
    """Shared machinery of the n-gram format models: one
    :attr:`_model_class` model per attribute; the cell feature is the log
    probability of the value's ``least_k`` least probable grams."""

    context = FeatureContext.ATTRIBUTE
    scope = FeatureContext.ATTRIBUTE
    branch = None
    _model_class: type[NGramModel]

    def __init__(self, n: int = 3, least_k: int = 1):
        self._n = n
        self._least_k = least_k
        self._models: dict[str, NGramModel] | None = None

    def _fit_column(self, dataset: Dataset, attr: str) -> None:
        self._models[attr] = self._model_class(n=self._n).fit(dataset.column(attr))

    def transform_batch(self, batch: CellBatch) -> np.ndarray:
        self._require_fitted("_models")
        out = np.zeros((len(batch), self._least_k))
        for attr, by_value in batch.value_groups.items():
            model = self._models[attr]
            log_probs = self._memo(attr, model)
            for value, idx in by_value.items():
                row = log_probs.get(value)
                if row is None:
                    log_probs.stats.misses += 1
                    row = log_probs[value] = np.log(
                        model.least_probable_grams(value, self._least_k)
                    )
                out[idx] = row
            log_probs.stats.lookups += len(by_value)
        return out

    @property
    def dim(self) -> int:
        return self._least_k

    def to_state(self) -> dict:
        return {
            "n": self._n,
            "least_k": self._least_k,
            "models": {a: m.to_state() for a, m in self._models.items()},
        }

    @classmethod
    def _init_args(cls, state) -> dict:
        n = state.get("n")
        if n is None:
            # Saves from before ``n`` was recorded: every column's model
            # records its own.
            n = next((m["n"] for m in state["models"].values()), 3)
        return {"n": n, "least_k": state["least_k"]}

    def load_state(self, state) -> None:
        self._models = {
            a: self._model_class.from_state(m) for a, m in state["models"].items()
        }


class FormatNGramFeaturizer(_NGramFeaturizer):
    """Character 3-gram format model: frequency of the least frequent gram.

    A clean "60614" contains only common digit grams; "606x4" contains a gram
    never (or rarely) seen in the column, so its minimum gram probability
    collapses.  Log-scaled so magnitudes stay comparable across columns.
    """

    name = "format_3gram"
    _model_class = NGramModel


class SymbolicNGramFeaturizer(_NGramFeaturizer):
    """Symbolic 3-gram format model over the {C, N, S} signature.

    Captures shape violations (a letter inside a numeric column) even when
    the raw character grams are individually plausible.
    """

    name = "symbolic_3gram"
    _model_class = SymbolicNGramModel


class _ColumnCountsFeaturizer(ColumnScopedFeaturizer):
    """Base of the per-column frequency models: ``_counts[attr]`` maps a
    value (or token) to its count in the column, ``_totals[attr]`` is the
    column's total."""

    state_attribute = "_counts"

    def __init__(self) -> None:
        self._counts: dict[str, dict[str, int]] | None = None
        self._totals: dict[str, int] = {}

    def fit(self, dataset: Dataset) -> "_ColumnCountsFeaturizer":
        self._totals = {}
        return super().fit(dataset)

    def to_state(self) -> dict:
        return {
            "counts": {a: list(c.items()) for a, c in self._counts.items()},
            "totals": dict(self._totals),
        }

    def load_state(self, state) -> None:
        self._counts = {
            a: {k: int(v) for k, v in pairs} for a, pairs in state["counts"].items()
        }
        self._totals = {a: int(t) for a, t in state["totals"].items()}


class EmpiricalDistributionFeaturizer(_ColumnCountsFeaturizer):
    """Empirical probability of the cell value within its column.

    Errors are usually rare values; a swap of a frequent value into the wrong
    tuple stays frequent here, which is exactly why the tuple-level models
    are also needed (this featurizer alone cannot see swaps).
    """

    name = "empirical_dist"
    context = FeatureContext.ATTRIBUTE
    scope = FeatureContext.ATTRIBUTE
    branch = None

    def _fit_column(self, dataset: Dataset, attr: str) -> None:
        # Appends change num_rows for every column, but they also list every
        # column in the delta, so per-column totals stay consistent.
        self._counts[attr] = dataset.value_counts(attr)
        self._totals[attr] = dataset.num_rows

    def transform_batch(self, batch: CellBatch) -> np.ndarray:
        self._require_fitted("_counts")
        out = np.zeros((len(batch), 1))
        for attr, by_value in batch.value_groups.items():
            counts = self._counts[attr]
            total = self._totals[attr] or 1
            for value, idx in by_value.items():
                out[idx, 0] = counts.get(value, 0) / total
        return out

    @property
    def dim(self) -> int:
        return 1


class ColumnIdFeaturizer(Featurizer):
    """One-hot column id, capturing per-column bias (Table 7)."""

    name = "column_id"
    context = FeatureContext.ATTRIBUTE
    scope = FeatureContext.ATTRIBUTE
    branch = None

    def __init__(self) -> None:
        self._index: dict[str, int] | None = None

    def fit(self, dataset: Dataset) -> "ColumnIdFeaturizer":
        self._index = {attr: i for i, attr in enumerate(dataset.attributes)}
        return self

    def refresh(self, dataset: Dataset, delta: DatasetDelta) -> bool:
        # Depends only on the schema, which mutations never change.
        return False

    def transform_batch(self, batch: CellBatch) -> np.ndarray:
        self._require_fitted("_index")
        out = np.zeros((len(batch), len(self._index)))
        for attr, idx in batch.by_attr.items():
            out[idx, self._index[attr]] = 1.0
        return out

    @property
    def dim(self) -> int:
        if self._index is None:
            raise RuntimeError("ColumnIdFeaturizer used before fit()")
        return len(self._index)

    def to_state(self) -> dict:
        return {"index": dict(self._index)}

    def load_state(self, state) -> None:
        self._index = {a: int(i) for a, i in state["index"].items()}
