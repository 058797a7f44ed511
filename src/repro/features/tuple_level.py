"""Tuple-level representation models (§4.1).

These capture the joint distribution across attributes of a tuple: value
co-occurrence statistics, and a learnable embedding of the whole tuple.
Swapped values — which look perfectly normal to every attribute-level model —
break co-occurrence patterns, and these models are what surfaces them.

Both models memoise across calls, per fitted model, in
:class:`~repro.features.cache.FeatureCache` memos
(:meth:`~repro.features.base.Featurizer._memo`).  Co-occurrence keeps
``(attribute, value, row values)`` → the cell's row of conditionals.  The
tuple embedding keeps value → the cell's own vector, value → its token
rows, and ``(attribute position, row values)`` → the context vector.  Both
read one row-values tuple per row of a batch
(:meth:`~repro.features.base.CellBatch.row_values`).  The keys are contents,
never row indices: an edited row misses and computes its new entries, and
another relation with the same values reads the same ones.
"""

from __future__ import annotations

import numpy as np

from repro.dataset.counts import cooccurrence
from repro.dataset.table import Dataset
from repro.embeddings.corpus import tuple_corpus
from repro.embeddings.fasttext import FastTextEmbedding
from repro.features.base import (
    CellBatch,
    EmbeddingFeaturizer,
    FeatureContext,
    Featurizer,
)
from repro.features.cache import FeatureCache
from repro.text.tokenize import word_tokens


class CooccurrenceFeaturizer(Featurizer):
    """Pairwise conditional co-occurrence ``P(t[B] | t[A] = v)``.

    For a cell in attribute A with value v, the feature vector holds — for
    every other attribute B — the empirical probability of seeing the tuple's
    B-value among tuples that also carry v in A.  A swapped or garbled v
    co-occurs with "wrong" company, dragging these probabilities toward zero.
    One model covers all attributes (Table 7: "#attributes - 1" dimensions).
    """

    name = "cooccurrence"
    context = FeatureContext.TUPLE
    #: The transform reads the cell's row-mates — tuple-scoped.
    scope = FeatureContext.TUPLE
    branch = None
    #: The fitted joint-count tables are a pure function of the relation:
    #: stored whole as a fitted artifact and reloaded on a warm fit.
    artifact_kind = "featurizer/cooccurrence"

    def __init__(self) -> None:
        # (attr_a, value_a) -> (attr_b -> (value_b -> count))
        self._joint: dict[tuple[str, str], dict[str, dict[str, int]]] | None = None
        self._value_counts: dict[tuple[str, str], int] = {}
        self._attributes: tuple[str, ...] = ()

    def fit(self, dataset: Dataset) -> "CooccurrenceFeaturizer":
        """The relation's joint-count tables
        (:func:`~repro.dataset.counts.cooccurrence`, one shard at a time)."""
        self._attributes = dataset.attributes
        self._joint, self._value_counts = cooccurrence(dataset)
        return self

    def transform_batch(self, batch: CellBatch) -> np.ndarray:
        self._require_fitted("_joint")
        attributes = self._attributes
        schema = batch.dataset.attributes
        out = np.zeros((len(batch), len(attributes) - 1))
        # A row tuple names its values by position in the batch relation's
        # schema, so the memo serves only relations in the fitted order;
        # another order gets a memo of its own for this call.
        if schema == attributes:
            memo = self._memo("row", self._joint)
        else:
            memo = FeatureCache()
        position = {attr: k for k, attr in enumerate(schema)}
        lookups = 0
        for attr, by_value in batch.value_groups.items():
            for value, idx in by_value.items():
                total = self._value_counts.get((attr, value), 0)
                if not total:
                    # Unseen value: all conditionals are 0, the strongest
                    # signal — the zero initialisation already encodes it.
                    continue
                lookups += len(idx)
                # Each other attribute's count table and position in a row
                # tuple, resolved at the value's first miss.
                tables = None
                for i in idx:
                    row = batch.row_values(batch.cells[i].row)
                    key = (attr, value, row)
                    quotients = memo.get(key)
                    if quotients is None:
                        memo.stats.misses += 1
                        if tables is None:
                            buckets = self._joint[(attr, value)]
                            tables = [
                                (buckets.get(b, {}), position[b]) for b in attributes if b != attr
                            ]
                        quotients = memo[key] = np.array(
                            [table.get(row[k], 0) / total for table, k in tables]
                        )
                    out[i] = quotients
        memo.stats.lookups += lookups
        return out

    @property
    def dim(self) -> int:
        return len(self._attributes) - 1

    def to_state(self) -> dict:
        return {
            "attributes": list(self._attributes),
            "value_counts": [[list(k), v] for k, v in self._value_counts.items()],
            "joint": [
                [list(key), {attr: list(c.items()) for attr, c in buckets.items()}]
                for key, buckets in self._joint.items()
            ],
        }

    def load_state(self, state) -> None:
        value_counts = {tuple(k): int(v) for k, v in state["value_counts"]}
        joint = {
            tuple(key): {
                attr: {k: int(v) for k, v in pairs} for attr, pairs in buckets.items()
            }
            for key, buckets in state["joint"]
        }
        self._attributes = tuple(state["attributes"])
        self._value_counts = value_counts
        self._joint = joint


class _RelationEmbeddingFeaturizer(EmbeddingFeaturizer):
    """Shared machinery of the relation-wide FastText featurizers: one
    embedding of a ``_corpus`` pooling every attribute, so its artifact is
    scoped to the whole relation."""

    _training = {"window": 8}
    _model: FastTextEmbedding | None = None

    @staticmethod
    def _corpus(dataset: Dataset) -> list[list[str]]:
        raise NotImplementedError

    def fit(self, dataset: Dataset) -> "_RelationEmbeddingFeaturizer":
        self._artifact_keys = {}
        self._model = self._fit_embedding(
            self.name, dataset.fingerprint(), lambda: self._corpus(dataset)
        )
        return self

    def _embedding_states(self) -> dict:
        return {"model": self._model.to_state()}

    def load_state(self, state) -> None:
        self._model = FastTextEmbedding.from_state(state["model"])


class TupleEmbeddingFeaturizer(_RelationEmbeddingFeaturizer):
    """Learnable tuple representation (§4.1).

    Embeds the tuple as a bag of word tokens pooled across attributes (the
    word-embedding context is the whole tuple, order-free) and concatenates
    the *cell's own* token embedding so the branch is cell-specific.  Output
    feeds the ``tuple`` learnable branch (highway layers in the joint model).
    """

    name = "tuple_embedding"
    context = FeatureContext.TUPLE
    #: The context half of the output reads the cell's row-mates.
    scope = FeatureContext.TUPLE
    branch = "tuple"
    _kind = "embedding/tuple"
    _corpus = staticmethod(tuple_corpus)

    def transform_batch(self, batch: CellBatch) -> np.ndarray:
        self._require_fitted("_model")
        model = self._model
        dim = self._dim
        own_vectors = self._memo("value", model)
        token_rows = self._memo("tokens", model)
        contexts = self._memo("context", model)
        position = {attr: k for k, attr in enumerate(batch.dataset.attributes)}
        out = np.zeros((len(batch), 2 * dim))
        for i, (cell, value) in enumerate(zip(batch.cells, batch.resolved)):
            own = own_vectors.get(value)
            if own is None:
                own_vectors.stats.misses += 1
                own = own_vectors[value] = self._mean_vector(
                    [self._token_rows(token_rows, value)]
                )
            # The context is the row's other values in schema order, so the
            # cell's position and the row's values determine it; the
            # override never changes it.
            row = batch.row_values(cell.row)
            key = (position[cell.attr], row)
            context = contexts.get(key)
            if context is None:
                contexts.stats.misses += 1
                context = contexts[key] = self._mean_vector(
                    [
                        self._token_rows(token_rows, other)
                        for k, other in enumerate(row)
                        if k != key[0]
                    ]
                )
            out[i, :dim] = own
            out[i, dim:] = context
        own_vectors.stats.lookups += len(batch)
        contexts.stats.lookups += len(batch)
        return out

    def _token_rows(self, memo: FeatureCache, value: str) -> np.ndarray:
        """The token rows of ``value``'s word tokens, through ``memo``
        (read only on a miss of the other two memos)."""
        memo.stats.lookups += 1
        rows = memo.get(value)
        if rows is None:
            memo.stats.misses += 1
            rows = memo[value] = self._model.token_rows(word_tokens(value))
        return rows

    def _mean_vector(self, pieces: list[np.ndarray]) -> np.ndarray:
        """``sentence_vector`` of the concatenated token lists whose rows
        are ``pieces`` (``["<empty>"]`` when there are none): the same rows
        in the same order, so the same bits."""
        stacked = np.concatenate(pieces) if pieces else np.zeros((0, self._dim))
        if not len(stacked):
            return self._model.sentence_vector(["<empty>"])
        return np.mean(stacked, axis=0)

    @property
    def dim(self) -> int:
        return 2 * self._dim
