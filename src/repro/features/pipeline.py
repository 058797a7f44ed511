"""Feature pipeline: fit all representation models, produce model inputs.

The pipeline concatenates fixed numeric features into one standardised block
(the "wide" part of the wide-and-deep architecture, Appendix A.1) and keeps
each learnable-branch output separate (the "deep" part feeding highway
layers).  A spec whose ``featurizers`` list leaves one model out of
:func:`default_model_names` reproduces the Fig. 3 ablation.

Transforms are batched: one :class:`~repro.features.base.CellBatch` is built
per call and shared by every featurizer, so resolved values and per-column
groupings are computed once per batch rather than once per model.  Reuse
across calls lives inside the featurizers, in their per-model
:class:`~repro.features.cache.FeatureCache` memos.

:meth:`FeaturePipeline.fit` fits the models two at a time, on the calling
thread and one helper, the relation-wide ones first (see
:func:`fit_workers`).  After in-place dataset mutations,
:meth:`FeaturePipeline.refresh` refits only the models whose fitted state
the :class:`~repro.dataset.table.DatasetDelta` dirties (per-column models
refit just the touched columns), one at a time.
"""

from __future__ import annotations

import contextvars
import os
import threading
from dataclasses import dataclass
from typing import Mapping, Sequence

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
from repro.features.base import CellBatch, FeatureContext, Featurizer
from repro.features.dataset_level import (
    ConstraintViolationFeaturizer,
    NeighborhoodFeaturizer,
)
from repro.features.tuple_level import CooccurrenceFeaturizer, TupleEmbeddingFeaturizer
from repro.registry import REGISTRY, ComponentError, register
from repro.utils.specfile import require_int

#: Most featurizer fits :meth:`FeaturePipeline.fit` runs at once.  Two
#: means one helper thread beside the caller, which keeps the process's
#: peak memory independent of thread timing (see ``_fit_concurrently``).
MAX_FIT_WORKERS = 2


def fit_workers() -> int:
    """Threads :meth:`FeaturePipeline.fit` fits on, the calling one
    included: :data:`MAX_FIT_WORKERS`, or fewer when the process may use
    fewer CPUs.

    Threads, not processes: the embedding training that dominates a fit is
    numpy work that releases the interpreter lock, a thread shares the
    relation and the artifact store without pickling either, and every
    span and counter of a fit stays in this process.
    """
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        usable = os.cpu_count() or 1
    return min(MAX_FIT_WORKERS, usable)


# --------------------------------------------------------------------- #
# Registry wiring: every built-in representation model is a registered
# "featurizer" component, so detector specs (and user code) can compose a
# pipeline declaratively.  Factories receive their validated config plus a
# FeaturizerContext carrying the pipeline-level injections (the constraint
# set Σ and the default embedding geometry).
# --------------------------------------------------------------------- #


@dataclass
class FeaturizerContext:
    """Pipeline-level injections shared by all featurizer factories."""

    constraints: Sequence[DenialConstraint] = ()
    embedding_dim: int = 16
    embedding_epochs: int = 2


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

    def __init__(self, featurizers: Sequence[Featurizer]):
        names = [f.name for f in featurizers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate featurizer names: {names}")
        self.featurizers = list(featurizers)
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

    def fit(self, dataset: Dataset) -> "FeaturePipeline":
        """Fit every representation model on the noisy input dataset D.

        The models are independent, so they fit :func:`fit_workers` at a
        time (two, where two CPUs are usable): on this thread and on helper
        threads started and joined inside this call, each fit in a copy of
        this thread's context (so each sees the same ambient artifact
        store).  The relation-wide models (fit-time context ``TUPLE`` or
        ``DATASET``, which hold the longest trainings) fit first.  A
        featurizer's :meth:`~repro.features.base.Featurizer.fit` thus runs
        beside another's, custom ``module:attr`` ones included, and must
        share no mutable state with it.  Each fit keeps its own serial
        column loop, so keys, embedding tables and store traffic are those
        of a one-at-a-time fit, bit for bit.  If a fit raises, the fits not
        yet started are dropped, the running ones finish, and the first
        failure in pipeline order is re-raised (an interrupt or exit
        before any error).

        With an ambient artifact store installed
        (:func:`~repro.artifacts.use_store`), each model's fit first
        consults it: whole-state artifacts here, and — inside the
        column-scoped embedding featurizers — per-column embedding
        artifacts.  :meth:`refresh` consults the store installed when it
        runs.  Served or trained, the result is identical (training seeds
        are content-derived), so a warm fit changes nothing but wall-clock
        time.
        """
        # Relation-wide fits first (a stable sort keeps pipeline order
        # within each group): the longest trainings start before the short
        # per-attribute fits fill the gaps.
        order = sorted(
            range(len(self.featurizers)),
            key=lambda i: self.featurizers[i].context is FeatureContext.ATTRIBUTE,
        )
        workers = min(fit_workers(), len(order))
        if workers > 1:
            self._fit_concurrently(dataset, order, workers)
        else:
            for i in order:
                self.featurizers[i].fit_through_store(dataset)
        self._fit_standardisation(dataset)
        self._fitted = True
        return self

    def _fit_concurrently(
        self, dataset: Dataset, order: Sequence[int], workers: int
    ) -> None:
        """The featurizers at ``order``'s positions, fitted in that order by
        this thread and ``workers - 1`` helper threads; returns once every
        fit has ended.

        The calling thread takes fits too, rather than waiting on a pool of
        ``workers`` threads.  Besides starting one thread fewer, this keeps
        the process's peak memory from depending on thread timing.  glibc's
        allocator gives a new thread the most recently freed arena and takes
        it back when the thread ends, so a lone helper returns the arena it
        took: the next thread started after the fit (say a server's loop
        thread loading a saved detector) gets the arena its predecessor
        freed its arrays into, and reuses that memory.  Two pool threads
        end in either order; in one of them the next thread got the other
        arena, and the ``serve_mixed`` benchmark's peak RSS read 160 MB
        instead of 137 MB in about one run in four.
        """
        # The ambient artifact store is a ContextVar: each fit runs in its
        # own copy of this thread's context.  Fits are popped from the end.
        pending = [(i, contextvars.copy_context()) for i in reversed(order)]
        failures: dict[int, BaseException] = {}
        lock = threading.Lock()

        def fit_pending() -> None:
            while True:
                with lock:
                    if failures or not pending:
                        return
                    i, context = pending.pop()
                try:
                    context.run(self.featurizers[i].fit_through_store, dataset)
                except BaseException as exc:  # re-raised below
                    with lock:
                        failures[i] = exc

        helpers = [
            threading.Thread(target=fit_pending, name=f"repro-fit-{k}")
            for k in range(1, workers)
        ]
        for helper in helpers:
            helper.start()
        try:
            fit_pending()
        finally:
            # After a failure (or an interrupt) the fits not yet started
            # are dropped; the running ones finish and their threads end.
            with lock:
                pending.clear()
            for helper in helpers:
                helper.join()
        if failures:
            # An interrupt or exit outranks an error; among errors, the
            # first in pipeline order is raised.
            raise min(
                failures.items(), key=lambda f: (isinstance(f[1], Exception), f[0])
            )[1]

    def refresh(self, dataset: Dataset, delta: DatasetDelta) -> list[str]:
        """Refit only the models whose fitted state ``delta`` dirties.

        Per-column models (the attribute-context featurizers) refit just the
        touched columns; tuple- and dataset-context models, whose statistics
        span the whole relation, refit fully on any effective change; models
        that depend only on the schema never refit.  Returns the names of
        the refitted models (empty for an empty delta).

        The refits run one at a time, in pipeline order.

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

    def _numeric_block(self, batch: CellBatch) -> np.ndarray:
        blocks = [
            f.transform_batch(batch)
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
        """Features for a prepared :class:`CellBatch`, whose groupings
        are shared by all featurizers."""
        if not self._fitted:
            raise RuntimeError("pipeline used before fit()")
        numeric = self._numeric_block(batch)
        if numeric.shape[1]:
            # Standardised features are clipped: a value whose raw statistic
            # is wildly outside the fit sample (e.g. an unseen n-gram in a
            # near-constant column) should read "extreme", not destabilise
            # the optimiser.
            numeric = (numeric - self._numeric_mean) / self._numeric_std
            numeric = np.clip(numeric, -10.0, 10.0)
        branches = {
            f.branch: f.transform_batch(batch)
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


def default_model_names(
    constraints: Sequence[DenialConstraint] | None = None,
) -> list[str]:
    """The models of Table 7's Q: :data:`DEFAULT_MODEL_ORDER`, plus
    ``constraint_violations`` when Σ is non-empty.  A detector whose spec
    leaves ``featurizers`` out builds this list."""
    names = list(DEFAULT_MODEL_ORDER)
    if constraints:
        names.append("constraint_violations")
    return names


def default_pipeline(
    constraints: Sequence[DenialConstraint] | None = None,
    embedding_dim: int = 16,
    embedding_epochs: int = 2,
) -> FeaturePipeline:
    """The full representation model Q of Table 7.

    ``constraints`` may be ``None``/empty (Σ is optional input).  The
    models are :func:`default_model_names`, built through the component
    registry as a spec-declared pipeline is.  There is no RNG to pass:
    each embedding trains from a seed derived from its artifact key
    (:mod:`repro.artifacts.keys`), and its fit consults the ambient
    artifact store, if one is installed.
    """
    ctx = FeaturizerContext(
        constraints=list(constraints) if constraints else (),
        embedding_dim=embedding_dim,
        embedding_epochs=embedding_epochs,
    )
    return build_pipeline(default_model_names(constraints), ctx)
