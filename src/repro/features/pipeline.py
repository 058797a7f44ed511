"""Feature pipeline: fit all representation models, produce model inputs.

The pipeline concatenates fixed numeric features into one standardised block
(the "wide" part of the wide-and-deep architecture, Appendix A.1) and keeps
each learnable-branch output separate (the "deep" part feeding highway
layers).  Dropping a model by name reproduces the Fig. 3 ablation.

Transforms are batched: one :class:`~repro.features.base.CellBatch` is built
per call and shared by every featurizer, so resolved values and per-column
groupings are computed once per batch rather than once per model.  No cache
is attached by default; a caller that transforms the same batch again can
attach a :class:`~repro.features.cache.FeatureCache` (``pipeline.cache``),
which memoises each featurizer's block per batch.

After in-place dataset mutations, :meth:`FeaturePipeline.refresh` refits
only the models whose fitted state the :class:`~repro.dataset.table.DatasetDelta`
dirties (per-column models refit just the touched columns).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.constraints.dc import DenialConstraint
from repro.dataset.table import Cell, Dataset, DatasetDelta
from repro.features.attribute import (
    CharEmbeddingFeaturizer,
    ColumnIdFeaturizer,
    EmpiricalDistributionFeaturizer,
    FormatNGramFeaturizer,
    SymbolicNGramFeaturizer,
    WordEmbeddingFeaturizer,
)
from repro.features.base import CellBatch, Featurizer
from repro.features.dataset_level import (
    ConstraintViolationFeaturizer,
    NeighborhoodFeaturizer,
)
from repro.features.tuple_level import CooccurrenceFeaturizer, TupleEmbeddingFeaturizer
from repro.registry import REGISTRY, ComponentError, register
from repro.utils.specfile import require_int

if TYPE_CHECKING:
    from repro.features.cache import FeatureCache

#: Names of all representation models in the default pipeline, usable with
#: :func:`default_pipeline`'s ``exclude`` for ablation studies.
ALL_MODEL_NAMES = (
    "char_embedding",
    "word_embedding",
    "format_3gram",
    "symbolic_3gram",
    "empirical_dist",
    "column_id",
    "cooccurrence",
    "tuple_embedding",
    "constraint_violations",
    "neighborhood",
)


# --------------------------------------------------------------------- #
# Registry wiring: every built-in representation model is a registered
# "featurizer" component, so detector specs (and user code) can compose a
# pipeline declaratively.  Factories receive their validated config plus a
# FeaturizerContext carrying the pipeline-level injections (the shared RNG,
# the constraint set Σ, and the default embedding geometry).
# --------------------------------------------------------------------- #


@dataclass
class FeaturizerContext:
    """Pipeline-level injections shared by all featurizer factories."""

    constraints: Sequence[DenialConstraint] = ()
    embedding_dim: int = 16
    embedding_epochs: int = 2
    rng: object = None


@dataclass(frozen=True)
class EmbeddingModelConfig:
    """Config of the embedding-backed models; ``None`` inherits the
    pipeline-level defaults (``DetectorConfig.embedding_dim``/``_epochs``)."""

    dim: int | None = None
    epochs: int | None = None

    def __post_init__(self) -> None:
        for name in ("dim", "epochs"):
            if getattr(self, name) is not None:
                require_int(name, getattr(self, name), 1)


@dataclass(frozen=True)
class NGramModelConfig:
    """Config of the n-gram format models."""

    n: int = 3
    least_k: int = 1

    def __post_init__(self) -> None:
        require_int("n", self.n, 1)
        require_int("least_k", self.least_k, 1)


def _embedding_factory(cls):
    def factory(cfg: EmbeddingModelConfig, ctx: FeaturizerContext) -> Featurizer:
        return cls(
            dim=cfg.dim if cfg.dim is not None else ctx.embedding_dim,
            epochs=cfg.epochs if cfg.epochs is not None else ctx.embedding_epochs,
            rng=ctx.rng,
        )

    return factory


def _ngram_factory(cls):
    def factory(cfg: NGramModelConfig, ctx: FeaturizerContext) -> Featurizer:
        return cls(n=cfg.n, least_k=cfg.least_k)

    return factory


def _plain_factory(cls):
    def factory(params: Mapping[str, object], ctx: FeaturizerContext) -> Featurizer:
        if params:
            raise ComponentError(f"takes no parameters, got {sorted(params)}")
        return cls()

    return factory


REGISTRY.add(
    "featurizer", "char_embedding", _embedding_factory(CharEmbeddingFeaturizer),
    config=EmbeddingModelConfig,
    description="FastText embedding of the value as a character sequence",
)
REGISTRY.add(
    "featurizer", "word_embedding", _embedding_factory(WordEmbeddingFeaturizer),
    config=EmbeddingModelConfig,
    description="FastText embedding of the value as a word sequence",
)
REGISTRY.add(
    "featurizer", "format_3gram", _ngram_factory(FormatNGramFeaturizer),
    config=NGramModelConfig,
    description="character n-gram format likelihood per attribute",
)
REGISTRY.add(
    "featurizer", "symbolic_3gram", _ngram_factory(SymbolicNGramFeaturizer),
    config=NGramModelConfig,
    description="symbol-class n-gram likelihood per attribute",
)
REGISTRY.add(
    "featurizer", "empirical_dist", _plain_factory(EmpiricalDistributionFeaturizer),
    description="empirical value frequency within the attribute",
)
REGISTRY.add(
    "featurizer", "column_id", _plain_factory(ColumnIdFeaturizer),
    description="one-hot column identity",
)
REGISTRY.add(
    "featurizer", "cooccurrence", _plain_factory(CooccurrenceFeaturizer),
    description="attribute-pair value co-occurrence statistics",
)
REGISTRY.add(
    "featurizer", "tuple_embedding", _embedding_factory(TupleEmbeddingFeaturizer),
    config=EmbeddingModelConfig,
    description="learnable tuple-context embedding (tuple branch)",
)
REGISTRY.add(
    "featurizer", "neighborhood", _embedding_factory(NeighborhoodFeaturizer),
    config=EmbeddingModelConfig,
    description="nearest-neighbour distance in tuple-value embedding space",
)


@register(
    "featurizer", "constraint_violations",
    description="per-constraint violation counts (needs Σ from context)",
)
def _constraint_violations(
    params: Mapping[str, object], ctx: FeaturizerContext
) -> Featurizer:
    if params:
        raise ComponentError(f"takes no parameters, got {sorted(params)}")
    return ConstraintViolationFeaturizer(list(ctx.constraints or ()))


def build_featurizer(
    name: str,
    params: Mapping[str, object] | None = None,
    ctx: FeaturizerContext | None = None,
) -> Featurizer:
    """Build one featurizer by registry key (or ``module:attr`` reference).

    External references are invoked with their params only; built-ins also
    receive the :class:`FeaturizerContext`.  The result must quack like a
    :class:`~repro.features.base.Featurizer` — ``fit``/``transform_batch``/
    ``dim`` — which is validated structurally here so a bad reference fails
    at build time, not deep inside ``fit()``.
    """
    ctx = ctx or FeaturizerContext()
    entry = REGISTRY.entry("featurizer", name)
    if entry.builtin:
        featurizer = REGISTRY.create("featurizer", name, params, ctx=ctx)
    else:
        featurizer = REGISTRY.create("featurizer", name, params)
    missing = [
        attr
        for attr in ("fit", "transform_batch", "dim", "name", "scope", "branch")
        # Checked on the type first: properties like ``dim`` may raise on an
        # unfitted instance, which hasattr(instance, ...) would misread.
        if not hasattr(type(featurizer), attr)
        and attr not in getattr(featurizer, "__dict__", {})
    ]
    if missing:
        raise ComponentError(
            f"featurizer {name!r} built {type(featurizer).__name__}, which lacks "
            f"the Featurizer interface attributes {missing}"
        )
    return featurizer


@dataclass
class CellFeatures:
    """Transformed features for a batch of cells.

    ``numeric`` is the standardised wide block; ``branches`` maps branch name
    (``char``/``word``/``tuple``) to the raw embedding block feeding that
    learnable layer.
    """

    numeric: np.ndarray
    branches: dict[str, np.ndarray]

    @property
    def batch_size(self) -> int:
        return self.numeric.shape[0]


class FeaturePipeline:
    """Fits featurizers on a dataset and transforms cells into model inputs."""

    def __init__(
        self,
        featurizers: Sequence[Featurizer],
        cache: "FeatureCache | None" = None,
        artifacts=None,
    ):
        names = [f.name for f in featurizers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate featurizer names: {names}")
        self.featurizers = list(featurizers)
        #: Optional block cache, ``None`` unless a caller assigns a
        #: ``FeatureCache``; set back to ``None`` to bypass it.
        self.cache = cache
        #: Optional fitted-artifact store (:mod:`repro.artifacts`); when
        #: attached, :meth:`fit` serves trained embeddings and fitted
        #: featurizer states from it instead of retraining.
        self.artifacts = artifacts
        self._fitted = False
        self._numeric_mean: np.ndarray | None = None
        self._numeric_std: np.ndarray | None = None

    @property
    def model_names(self) -> list[str]:
        return [f.name for f in self.featurizers]

    @property
    def artifact_keys(self) -> dict[str, str]:
        """Artifact keys of the last fit, labelled ``model`` or
        ``model/<column>`` (empty before :meth:`fit`)."""
        keys: dict[str, str] = {}
        for featurizer in self.featurizers:
            keys.update(featurizer.artifact_keys)
        return keys

    def without(self, name: str) -> "FeaturePipeline":
        """A new (unfitted) pipeline with one representation model removed."""
        remaining = [f for f in self.featurizers if f.name != name]
        if len(remaining) == len(self.featurizers):
            raise ValueError(f"no featurizer named {name!r}")
        return FeaturePipeline(remaining, cache=self.cache, artifacts=self.artifacts)

    def fit(self, dataset: Dataset) -> "FeaturePipeline":
        """Fit every representation model on the noisy input dataset D.

        With an artifact store attached (:attr:`artifacts`), each model's
        fit first consults the store: whole-state artifacts here, and —
        inside the column-scoped embedding featurizers — per-column
        embedding artifacts.  Served or trained, the result is identical
        (training seeds are content-derived), so a warm fit changes nothing
        but wall-clock time.
        """
        for featurizer in self.featurizers:
            self._fit_featurizer(featurizer, dataset)
            # A refit invalidates any cached blocks of the previous fit.
            featurizer.reset_cache_token()
        self._fit_standardisation(dataset)
        self._fitted = True
        return self

    def _fit_featurizer(self, featurizer: Featurizer, dataset: Dataset) -> None:
        """Fit one model, through the artifact store when possible."""
        # Attached for the duration of the pipeline's life so per-column
        # fits (and later column-scoped refreshes) consult the same store.
        featurizer.artifact_store = self.artifacts
        featurizer.fit_through_store(dataset)

    def refresh(self, dataset: Dataset, delta: DatasetDelta) -> list[str]:
        """Refit only the models whose fitted state ``delta`` dirties.

        Per-column models (the attribute-context featurizers) refit just the
        touched columns; tuple- and dataset-context models, whose statistics
        span the whole relation, refit fully on any effective change; models
        that depend only on the schema never refit.  Returns the names of
        the refitted models (empty for an empty delta).

        Standardisation statistics are deliberately *not* recomputed: they
        are fit-time normalisation constants (eval-mode semantics, like a
        normalisation layer's running statistics).  Recomputing them would
        shift every cell's numeric features globally, destroying the
        locality that lets :class:`~repro.core.detector.DetectionSession`
        re-score only the cells a refit actually touches.
        """
        if not self._fitted:
            raise RuntimeError("pipeline used before fit()")
        if delta.is_empty:
            return []
        return [f.name for f in self.featurizers if f.refresh(dataset, delta)]

    def _fit_standardisation(self, dataset: Dataset) -> None:
        # Standardisation statistics come from a sample of D's cells so that
        # feature scales are comparable regardless of the training subset.
        sample_cells = self._sample_cells(dataset, limit=2000)
        numeric = self._numeric_block(CellBatch(sample_cells, dataset))
        if numeric.shape[1]:
            self._numeric_mean = numeric.mean(axis=0)
            std = numeric.std(axis=0)
            self._numeric_std = np.where(std < 1e-6, 1.0, std)
        else:
            self._numeric_mean = np.zeros(0)
            self._numeric_std = np.ones(0)

    @staticmethod
    def _sample_cells(dataset: Dataset, limit: int) -> list[Cell]:
        # Arithmetic strided sample over the attr-major cell order — the
        # same cells ``list(dataset.cells())[::stride][:limit]`` yields,
        # without materialising every cell of an out-of-core relation.
        total = dataset.num_cells
        num_rows = dataset.num_rows
        attributes = dataset.attributes
        if total <= limit:
            return list(dataset.cells())
        stride = max(1, total // limit)
        return [
            Cell(row=i % num_rows, attr=attributes[i // num_rows])
            for i in range(0, total, stride)[:limit]
        ]

    def _block(self, featurizer: Featurizer, batch: CellBatch) -> np.ndarray:
        """One featurizer's block for the batch, through the cache if any."""
        if self.cache is None:
            return featurizer.transform_batch(batch)
        return self.cache.get_or_compute(featurizer, batch)

    def _numeric_block(self, batch: CellBatch) -> np.ndarray:
        blocks = [
            self._block(f, batch)
            for f in self.featurizers
            if f.branch is None and f.dim > 0
        ]
        if not blocks:
            return np.zeros((len(batch), 0))
        return np.concatenate(blocks, axis=1)

    def transform(
        self, cells: Sequence[Cell], dataset: Dataset, values: Sequence[str] | None = None
    ) -> CellFeatures:
        """Features for ``cells``; ``values`` overrides observed cell values.

        The override is how augmented examples are featurised: the synthetic
        value replaces the observed one while the tuple context stays real.
        """
        return self.transform_batch(CellBatch(cells, dataset, values))

    def transform_batch(self, batch: CellBatch) -> CellFeatures:
        """Features for a prepared :class:`CellBatch`.

        The batch's groupings are shared by all featurizers; with a cache
        attached each featurizer's block is memoised per batch.
        """
        if not self._fitted:
            raise RuntimeError("pipeline used before fit()")
        numeric = self._numeric_block(batch)
        if numeric.shape[1]:
            # Standardisation allocates a fresh array, so cached blocks stay
            # pristine.  Standardised features are clipped: a value whose raw
            # statistic is wildly outside the fit sample (e.g. an unseen
            # n-gram in a near-constant column) should read "extreme", not
            # destabilise the optimiser.
            numeric = (numeric - self._numeric_mean) / self._numeric_std
            numeric = np.clip(numeric, -10.0, 10.0)
        branches = {
            f.branch: self._block(f, batch)
            for f in self.featurizers
            if f.branch is not None
        }
        return CellFeatures(numeric=numeric, branches=branches)

    @property
    def numeric_dim(self) -> int:
        return sum(f.dim for f in self.featurizers if f.branch is None)

    @property
    def branch_dims(self) -> dict[str, int]:
        return {f.branch: f.dim for f in self.featurizers if f.branch is not None}


#: Construction order of the default pipeline (Table 7).  The constraint
#: model is appended last, and only when Σ is non-empty.
DEFAULT_MODEL_ORDER = (
    "char_embedding",
    "word_embedding",
    "format_3gram",
    "symbolic_3gram",
    "empirical_dist",
    "column_id",
    "cooccurrence",
    "tuple_embedding",
    "neighborhood",
)


def build_pipeline(
    entries: Sequence[str | tuple[str, Mapping[str, object]]],
    ctx: FeaturizerContext | None = None,
) -> FeaturePipeline:
    """Build an (unfitted) pipeline from declarative featurizer entries.

    Each entry is a registry key — or ``module:attr`` reference — optionally
    paired with a parameter mapping.  This is the construction path behind
    :class:`~repro.spec.DetectorSpec` pipelines; :func:`default_pipeline`
    uses it for the built-in Table 7 composition.
    """
    ctx = ctx or FeaturizerContext()
    featurizers = []
    for entry in entries:
        name, params = entry if isinstance(entry, tuple) else (entry, {})
        featurizers.append(build_featurizer(name, params, ctx))
    return FeaturePipeline(featurizers)


def default_pipeline(
    constraints: Sequence[DenialConstraint] | None = None,
    embedding_dim: int = 16,
    embedding_epochs: int = 2,
    exclude: Sequence[str] = (),
    rng=None,
) -> FeaturePipeline:
    """The full representation model Q of Table 7.

    ``constraints`` may be ``None``/empty (Σ is optional input); ``exclude``
    removes named models for ablation studies (see :data:`ALL_MODEL_NAMES`).
    Every model is resolved through the component registry, so the default
    composition and a spec-declared one share a single construction path.
    """
    ctx = FeaturizerContext(
        constraints=list(constraints) if constraints else (),
        embedding_dim=embedding_dim,
        embedding_epochs=embedding_epochs,
        rng=rng,
    )
    names = list(DEFAULT_MODEL_ORDER)
    if constraints:
        names.append("constraint_violations")
    unknown = set(exclude) - set(names)
    if unknown:
        raise ValueError(f"unknown model names in exclude: {sorted(unknown)}")
    return build_pipeline([n for n in names if n not in set(exclude)], ctx)
