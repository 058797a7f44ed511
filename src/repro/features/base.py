"""Featurizer interface shared by all representation models.

Featurization is *batched*: the unit of work is a :class:`CellBatch`, which
bundles the cells to transform, the dataset supplying their tuple context,
and the optional per-cell value overrides used for augmented examples.  The
batch precomputes the groupings every vectorised featurizer needs — resolved
values, positions grouped by attribute, unique-value groups per attribute —
once, so per-column statistics are shared across all models of a pipeline
instead of being recomputed per cell per featurizer.
"""

from __future__ import annotations

import enum
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.artifacts.codec import (
    decode_embedding,
    featurizer_payload,
    load_featurizer_payload,
    store_or_build,
)
from repro.artifacts.keys import artifact_key, training_seed
from repro.artifacts.runtime import get_default_store
from repro.dataset.table import Cell, Dataset, DatasetDelta
from repro.embeddings.fasttext import FastTextEmbedding
from repro.features.cache import FeatureCache


class FeatureContext(enum.Enum):
    """The three granularities of §4.1.

    Used in two distinct roles:

    - :attr:`Featurizer.context` — the *fit-time* granularity of the model
      (the paper's classification: what the statistics describe);
    - :attr:`Featurizer.scope` — the *transform-time* dependency: which part
      of the dataset a transformed block reads beyond the batch's own
      resolved values.  ``ATTRIBUTE`` = nothing beyond the batch's columns,
      ``TUPLE`` = the batch rows' contents across all columns, ``DATASET`` =
      potentially anything.  The scope drives incremental re-scoring; the
      two often differ (e.g. the neighborhood model *fits* on the whole
      dataset but *transforms* from the cell value alone).
    """

    ATTRIBUTE = "attribute"
    TUPLE = "tuple"
    DATASET = "dataset"


class CellBatch:
    """A batch of cells to featurize against one dataset.

    Built once per pipeline call and shared by every featurizer in the
    pipeline.  All derived groupings are lazy: a featurizer that only needs
    ``resolved`` values never pays for the per-attribute index.

    ``values`` overrides the observed cell values — this is how augmented
    examples are featurised: the synthetic value replaces the observed one
    while the tuple context stays real.
    """

    __slots__ = (
        "cells",
        "dataset",
        "values",
        "resolved",
        "_by_attr",
        "_value_groups",
        "_overridden",
        "_rows",
    )

    def __init__(
        self,
        cells: Sequence[Cell],
        dataset: Dataset,
        values: Sequence[str] | None = None,
    ):
        self.cells: list[Cell] = list(cells)
        self.dataset = dataset
        if values is not None and len(values) != len(self.cells):
            raise ValueError("values override must match cells length")
        self.values: list[str] | None = (
            None if values is None else [str(v) for v in values]
        )
        #: Per-cell value, honouring the override when present.
        self.resolved: list[str] = (
            self.values
            if self.values is not None
            else [dataset.value(c) for c in self.cells]
        )
        self._by_attr: dict[str, np.ndarray] | None = None
        self._value_groups: dict[str, dict[str, np.ndarray]] | None = None
        self._overridden: np.ndarray | None = None
        self._rows: dict[int, tuple[str, ...]] = {}

    def __len__(self) -> int:
        return len(self.cells)

    @property
    def by_attr(self) -> dict[str, np.ndarray]:
        """Batch positions grouped by attribute (insertion order preserved)."""
        if self._by_attr is None:
            groups: dict[str, list[int]] = {}
            for i, cell in enumerate(self.cells):
                groups.setdefault(cell.attr, []).append(i)
            self._by_attr = {
                attr: np.asarray(idx, dtype=np.intp) for attr, idx in groups.items()
            }
        return self._by_attr

    @property
    def value_groups(self) -> dict[str, dict[str, np.ndarray]]:
        """Positions grouped by ``(attribute, resolved value)``.

        The core vectorisation structure: per-value statistics (n-gram
        probabilities, embeddings, frequencies) are computed once per unique
        value of a column and scattered to every cell carrying it.
        """
        if self._value_groups is None:
            groups: dict[str, dict[str, list[int]]] = {}
            for i, cell in enumerate(self.cells):
                groups.setdefault(cell.attr, {}).setdefault(self.resolved[i], []).append(i)
            self._value_groups = {
                attr: {
                    value: np.asarray(idx, dtype=np.intp)
                    for value, idx in by_value.items()
                }
                for attr, by_value in groups.items()
            }
        return self._value_groups

    def row_values(self, row: int) -> tuple[str, ...]:
        """Row ``row``'s observed values in schema order, built once per
        batch and shared by the featurizers whose memos key on row content."""
        values = self._rows.get(row)
        if values is None:
            values = self._rows[row] = tuple(self.dataset.row_values(row))
        return values

    @property
    def overridden(self) -> np.ndarray:
        """Boolean mask: cell value differs from the observed one."""
        if self._overridden is None:
            if self.values is None:
                self._overridden = np.zeros(len(self.cells), dtype=bool)
            else:
                self._overridden = np.array(
                    [
                        value != self.dataset.value(cell)
                        for cell, value in zip(self.cells, self.resolved)
                    ],
                    dtype=bool,
                )
        return self._overridden


class Featurizer:
    """One representation model: fit on the noisy dataset, transform cells.

    Subclasses set :attr:`name` (used by the ablation study to address
    models), :attr:`context`, :attr:`scope`, and :attr:`branch`.  ``branch``
    is ``None`` for fixed numeric features and a branch label (``"char"``,
    ``"word"``, ``"tuple"``) for outputs that feed a learnable representation
    layer (Fig. 2B) inside the joint model.

    ``scope`` declares the transform-time dependency granularity — what a
    transformed block reads from the dataset beyond the batch's own resolved
    values — and so which cells an edit can change (see
    :class:`~repro.core.detector.DetectionSession`).  The default is the
    conservative ``DATASET`` (any mutation re-scores everything); built-in
    models declare the tightest scope that is honest for their transform.

    The primary transform contract is :meth:`transform_batch`, which receives
    a :class:`CellBatch` and returns the feature block for all of its cells
    at once; :meth:`transform` is a convenience wrapper that builds the batch
    from loose arguments.  Legacy subclasses that override only
    :meth:`transform` keep working — the base :meth:`transform_batch`
    delegates to it.
    """

    name: str = "featurizer"
    context: FeatureContext = FeatureContext.ATTRIBUTE
    #: Transform-time dependency granularity (incremental re-scoring).
    #: DATASET is the safe default for custom subclasses.
    scope: FeatureContext = FeatureContext.DATASET
    branch: str | None = None
    #: Whole-state artifact kind tag (see :mod:`repro.artifacts`).  ``None``
    #: means this featurizer is not stored at whole-state granularity —
    #: either its fit is too cheap to be worth a store round-trip (n-gram
    #: counts, frequencies, one-hots) or it manages finer-grained artifacts
    #: itself (the per-column embedding models).
    artifact_kind: str | None = None
    _artifact_keys: "dict[str, str] | None" = None

    def fit(self, dataset: Dataset) -> "Featurizer":
        """Learn the model's statistics from the (noisy) input dataset D.

        :meth:`~repro.features.pipeline.FeaturePipeline.fit` may run this
        on a worker thread, beside another featurizer's fit — custom
        ``module:attr`` featurizers included.  A fit may read ``dataset``
        and the ambient artifact store, and write its own state; it must
        share no other mutable state with another featurizer's fit.
        """
        raise NotImplementedError

    def refresh(self, dataset: Dataset, delta: DatasetDelta) -> bool:
        """Refit on ``dataset`` if ``delta`` dirties this model's fitted state.

        Returns whether a refit happened.  The base implementation refits
        fully on any effective change; per-column models override this to
        refit only the touched columns, and models whose fitted state cannot
        go stale (e.g. a schema-only one-hot) override it to do nothing.
        """
        if delta.is_empty:
            return False
        self.fit_through_store(dataset)
        return True

    def fit_through_store(self, dataset: Dataset) -> None:
        """Fit, serving/storing the whole fitted state through the ambient
        artifact store (:func:`~repro.artifacts.get_default_store`) when
        this featurizer declares an :attr:`artifact_kind`.

        Used by both :meth:`FeaturePipeline.fit` and the base
        :meth:`refresh`, so an interactive-loop refit consults the store
        exactly like an initial fit.  The artifact key is recorded store or
        not — it is a pure content/config derivation, and persisted
        detectors carry it as provenance.  A stored state is loaded into
        this featurizer in place; one that fails to decode, or that names
        another type, is a miss and the featurizer refits (see
        :func:`~repro.artifacts.codec.store_or_build`).
        """
        if self.artifact_kind is None:
            self.fit(dataset)
            return
        key = artifact_key(
            self.artifact_kind, self.artifact_scope(dataset), self.artifact_config()
        )
        store_or_build(
            get_default_store(),
            key,
            self.artifact_kind,
            lambda: self.fit(dataset),
            featurizer_payload,
            lambda payload: load_featurizer_payload(self, payload),
        )
        self._artifact_keys = {self.name: key}

    # -- fitted state (saved detectors, whole-state artifacts) ---------- #

    def to_state(self) -> dict:
        """The constructor arguments and fitted tables: JSON-able data with
        numpy arrays inline, the one encoding saved detectors and
        whole-state artifacts share.  Custom featurizers need not implement
        it; they refit instead of being stored."""
        raise NotImplementedError(f"{type(self).__name__} has no saved state")

    def load_state(self, state: Mapping[str, object]) -> None:
        """Take the fitted tables of a :meth:`to_state` dict in place (the
        constructor arguments are this featurizer's own)."""
        raise NotImplementedError(f"{type(self).__name__} has no saved state")

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "Featurizer":
        """A fitted featurizer rebuilt from :meth:`to_state` output."""
        featurizer = cls(**cls._init_args(state))
        featurizer.load_state(state)
        return featurizer

    @classmethod
    def _init_args(cls, state: Mapping[str, object]) -> dict:
        """The constructor arguments recorded in a :meth:`to_state` dict."""
        return {}

    # -- fitted-artifact participation (see repro.artifacts) ------------ #

    def artifact_config(self) -> dict:
        """JSON-able configuration identifying this component for keying.

        Together with :attr:`artifact_kind` and :meth:`artifact_scope` this
        determines the whole-state artifact key; subclasses with knobs that
        change the fitted state must include them here.
        """
        return {}

    def artifact_scope(self, dataset: Dataset) -> str:
        """Scoped content fingerprint of the data this model's fit reads.

        Defaults to the whole-relation fingerprint; models fitting narrower
        state may override (the per-column embedding featurizers key each
        column's model on that column's fingerprint instead).
        """
        return dataset.fingerprint()

    @property
    def artifact_keys(self) -> dict[str, str]:
        """Artifact keys consulted/stored by the most recent fit, labelled
        ``name`` (whole-state) or ``name/<column>`` (per-column)."""
        return dict(self._artifact_keys or {})

    def _record_artifact(self, label: str, key: str) -> None:
        if self._artifact_keys is None:
            self._artifact_keys = {}
        self._artifact_keys[label] = key

    def transform_batch(self, batch: CellBatch) -> np.ndarray:
        """Feature block ``[len(batch), self.dim]`` for the batch's cells.

        Implementations should vectorise over :attr:`CellBatch.value_groups`
        (or :attr:`CellBatch.by_attr`) so per-column statistics are computed
        once per unique value, not once per cell.
        """
        if type(self).transform is Featurizer.transform:
            raise NotImplementedError(
                f"{type(self).__name__} must implement transform_batch()"
            )
        # Legacy subclass: only the loose-argument transform() is overridden.
        # Older subclasses may predate the ``values`` parameter, so only pass
        # the override when there is one to honour.
        if batch.values is None:
            return self.transform(batch.cells, batch.dataset)
        return self.transform(batch.cells, batch.dataset, batch.values)

    def transform(
        self, cells: Sequence[Cell], dataset: Dataset, values: Sequence[str] | None = None
    ) -> np.ndarray:
        """Feature block ``[len(cells), self.dim]`` for the given cells.

        ``dataset`` supplies the observed values; it may differ from the fit
        dataset only in cell values (augmented examples reuse row context).
        ``values`` overrides observed cell values position-by-position.
        """
        return self.transform_batch(CellBatch(cells, dataset, values))

    @property
    def dim(self) -> int:
        """Output width of :meth:`transform_batch`."""
        raise NotImplementedError

    def _memo(self, name: str, fitted: object) -> FeatureCache:
        """The transform memo ``name``, a :class:`FeatureCache` that
        outlives the call.

        It belongs to the fitted object ``fitted`` (a column's model, the
        relation-wide embedding): when ``fitted`` is not the object the memo
        was built for — a per-column refit, :meth:`load_state`, a refit of
        the relation — a new, empty memo replaces it.  A full memo is
        emptied first (:meth:`FeatureCache.make_room`).  Callers key it by
        value or row content, never by row index, so it stays correct
        across edits and relations.  They count a miss where they compute
        the entry and their lookups once per call (``memo.stats``).
        """
        memos = self.__dict__.setdefault("_memos", {})
        entry = memos.get(name)
        if entry is None or entry[0] is not fitted:
            entry = memos[name] = (fitted, FeatureCache())
        memo = entry[1]
        memo.make_room()
        return memo

    def _require_fitted(self, attribute: str) -> None:
        if getattr(self, attribute, None) is None:
            raise RuntimeError(f"{type(self).__name__} used before fit()")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, context={self.context.value})"


class ColumnScopedFeaturizer(Featurizer):
    """Base for featurizers whose fitted state is an independent per-column
    mapping (one model/statistic per attribute).

    Subclasses implement :meth:`_fit_column` (refit one column's state) and
    set :attr:`state_attribute` to the instance attribute holding the
    per-column mapping (``None`` before :meth:`fit`).  In exchange they get
    :meth:`fit` (every column) and a column-scoped :meth:`refresh` — after
    a batch edit only the touched columns are refitted.

    The per-value transform memos (:meth:`Featurizer._memo`) belong to
    each column's fitted model, so after a refresh a refitted column starts
    a new memo while every untouched column keeps its own.
    """

    scope = FeatureContext.ATTRIBUTE
    #: Name of the instance attribute holding the per-column fitted state.
    state_attribute: str = "_models"

    def _fit_column(self, dataset: Dataset, attr: str) -> None:
        """(Re)fit the state of one column in place."""
        raise NotImplementedError

    def fit(self, dataset: Dataset) -> "ColumnScopedFeaturizer":
        setattr(self, self.state_attribute, {})
        self._artifact_keys = {}
        for attr in dataset.attributes:
            self._fit_column(dataset, attr)
        return self

    def refresh(self, dataset: Dataset, delta: DatasetDelta) -> bool:
        if delta.is_empty:
            return False
        if getattr(self, self.state_attribute, None) is None:
            self.fit(dataset)
        else:
            for attr in delta.columns:
                self._fit_column(dataset, attr)
        return True


class EmbeddingFeaturizer(Featurizer):
    """Shared machinery of the FastText featurizers.

    Every trained embedding is a content-addressed fitted artifact
    (:mod:`repro.artifacts`): it is keyed by (:attr:`_kind`, the scoped
    fingerprint of the data it trains on, the full training config), trains
    from a seed derived from that key, and — when an ambient store is
    installed — is served from the store instead of retrained.
    """

    #: Artifact kind of the trained embeddings (``embedding/<corpus>``).
    _kind: str = ""
    #: Corpus view tag of the per-column models ("char"/"word"), part of
    #: their key config; the relation-wide models have none.
    _view: str | None = None
    #: FastTextEmbedding arguments beyond ``dim`` and ``epochs``.
    _training: Mapping[str, object] = {}

    def __init__(self, dim: int = 16, epochs: int = 2):
        self._dim = dim
        self._epochs = epochs

    def _new_embedding(self, seed: int | None = None) -> FastTextEmbedding:
        return FastTextEmbedding(
            dim=self._dim, epochs=self._epochs, rng=seed, **self._training
        )

    def _embedding_config(self) -> dict:
        # The full training-config enumeration (not just the knobs this
        # featurizer exposes): a future change to any FastTextEmbedding
        # default must change the key, never silently serve stale weights.
        config = self._new_embedding().config_dict()
        if self._view is not None:
            config["view"] = self._view
        return config

    def _fit_embedding(
        self,
        label: str,
        scope: str,
        corpus: Callable[[], list[list[str]]],
        meta: Mapping[str, object] | None = None,
    ) -> FastTextEmbedding:
        """The embedding of ``corpus()`` under ``scope``, served or trained;
        its key is recorded as ``label``."""
        key = artifact_key(self._kind, scope, self._embedding_config())
        model = store_or_build(
            get_default_store(),
            key,
            self._kind,
            lambda: self._new_embedding(training_seed(key)).fit(corpus()),
            FastTextEmbedding.to_state,
            decode_embedding,
            meta=meta,
        )
        self._record_artifact(label, key)
        return model

    def to_state(self) -> dict:
        return {
            "dim": self._dim,
            "epochs": self._epochs,
            **self._embedding_states(),
        }

    def _embedding_states(self) -> dict:
        """The ``to_state`` entry holding the fitted embedding(s)."""
        raise NotImplementedError

    @classmethod
    def _init_args(cls, state) -> dict:
        # Older saves also carry a ``seed_material`` entry, always null for
        # detector-built fits; it is ignored.
        return {"dim": state["dim"], "epochs": state["epochs"]}
