"""The HoloDetect detector: §3.3's three modules wired end-to-end.

``fit`` runs: (1) transformation + policy learning and data augmentation
(Module 1), (2) representation model fitting (Module 2), (3) joint training
of the learnable layers and classifier M plus Platt calibration (Module 3).
``predict`` classifies every cell of D outside the training set.

Setting ``augment=False`` yields the SuperL variant of §6.1 — identical
model, supervision limited to T — which the baselines package reuses.

:class:`DetectionSession` wraps a fitted detector for the interactive
label→repair→re-score loop: ``apply(edits)`` mutates the dataset through the
versioned batch mutators and patches probabilities for only the cells whose
features the edit can change (derived from featurizer scopes), instead of
re-running a full ``predict()``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import PurePath
from itertools import islice
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.artifacts import ArtifactStats, ArtifactStore, get_default_store, use_store
from repro.augmentation.augment import augment_training_set
from repro.augmentation.naive_bayes import channel_examples
from repro.augmentation.policy import Policy
from repro.constraints.dc import DenialConstraint
from repro.core.calibration import PlattScaler
from repro.core.model import JointModel
from repro.core.training import TrainerConfig, train_model
from repro.dataset.table import Cell, Dataset, DatasetDelta
from repro.dataset.training import LabeledCell, TrainingSet
from repro.features.base import CellBatch, FeatureContext
from repro.features.pipeline import (
    CellFeatures,
    FeaturePipeline,
    FeaturizerContext,
    build_pipeline,
    default_model_names,
)
from repro.registry import REGISTRY
from repro.spec import DetectorSpec, SpecError
from repro.utils.rng import as_generator
from repro.utils.specfile import require_int

#: Row quantum of every scoring forward: a chunk of ``n`` cells is
#: zero-padded to the next multiple of this many rows.  BLAS picks its
#: kernels, and so its reduction order, by matrix shape.  On OpenBLAS's
#: Haswell kernels every multiple of 4 rows gives each row the same bits,
#: so a cell's score does not depend on its chunk-mates; other row counts
#: can differ in the last bit.  ``tests/test_core_detector.py`` pins this
#: on the host's BLAS.
SCORE_QUANTUM = 32


@dataclass
class DetectorConfig:
    """All knobs of the detector, defaulted for laptop-scale runs.

    The paper's configuration (500 epochs, batch 5, 50-dim embeddings) is a
    valid setting of the same fields.  These are the ``[detector]`` table of
    a :class:`~repro.spec.DetectorSpec`; the components — featurizers,
    augmentation policy, calibrator — are the spec's other entries, so
    ``HoloDetect(config)`` builds the spec's defaults for them.  A
    fitted-artifact store enters only by its directory (``artifact_dir``,
    the one field no spec records); a live
    :class:`~repro.artifacts.ArtifactStore` is attached to the detector with
    :meth:`HoloDetect.use_artifacts`, or installed around its fit with
    :func:`repro.artifacts.use_store`.
    """

    embedding_dim: int = 16
    embedding_epochs: int = 2
    hidden_dim: int = 32
    dropout: float = 0.2
    epochs: int = 40
    batch_size: int = 32
    lr: float = 1e-3
    weight_decay: float = 1e-5
    #: Floor on total optimiser steps — small training sets train deeper
    #: automatically, which removes most seed-to-seed variance in few-shot
    #: regimes (see TrainerConfig.min_steps).
    min_training_steps: int = 800
    holdout_fraction: float = 0.1
    alpha: float = 1.0
    target_ratio: float | None = None
    augment: bool = True
    #: Learn the channel from weak supervision when T has fewer error pairs.
    min_error_pairs: int = 10
    #: Cap on cells scanned by the Naive Bayes weak-supervision model.
    weak_supervision_max_cells: int = 20_000
    #: Cells featurised per prediction chunk.  Each chunk is scored padded
    #: to a multiple of :data:`SCORE_QUANTUM` rows, so a cell's probability
    #: depends neither on this setting nor on its chunk-mates.
    prediction_batch: int = 512
    #: Directory of an on-disk fitted-artifact store (:mod:`repro.artifacts`)
    #: shared across fits and processes; ``None`` = the detector has no
    #: store of its own and uses the ambient one, if any.
    artifact_dir: str | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        """Reject out-of-range values at construction time.

        Bad values used to surface deep inside training (a negative epoch
        count silently trained zero steps; a holdout fraction of 1.0 emptied
        the training set); every check here names the field, the offending
        value, and the valid range.
        """
        def number(name: str, ok, bound: str) -> None:
            # A TOML/JSON ``true`` is no number, as require_int holds for counts.
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not math.isfinite(value)
                or not ok(value)
            ):
                raise ValueError(f"{name} must be {bound}, got {value!r}")

        for name, minimum in (
            ("embedding_dim", 1), ("embedding_epochs", 1), ("hidden_dim", 1),
            ("epochs", 1), ("batch_size", 1), ("prediction_batch", 1),
            ("min_training_steps", 0), ("min_error_pairs", 0),
            ("weak_supervision_max_cells", 1), ("seed", 0),
        ):
            require_int(name, getattr(self, name), minimum)
        number("dropout", lambda v: 0 <= v < 1, "in [0, 1)")
        number("holdout_fraction", lambda v: 0 <= v < 1, "in [0, 1)")
        number("lr", lambda v: v > 0, "positive and finite")
        number("weight_decay", lambda v: v >= 0, "non-negative and finite")
        number("alpha", lambda v: 0 < v <= 1, "in (0, 1]")
        if self.target_ratio is not None:
            number("target_ratio", lambda v: v > 0, "positive and finite, or None")
        if not isinstance(self.augment, bool):
            raise ValueError(f"augment must be true or false, got {self.augment!r}")
        if self.artifact_dir is not None and not isinstance(
            self.artifact_dir, (str, PurePath)
        ):
            raise ValueError(
                f"artifact_dir must be a path string or None, got {self.artifact_dir!r}"
            )


@dataclass
class ErrorPredictions:
    """Cell-level predictions: calibrated error probabilities and labels."""

    cells: list[Cell]
    probabilities: np.ndarray
    threshold: float = 0.5
    #: Lazily built ``Cell -> position`` map backing O(1) lookups, and the
    #: length of :attr:`cells` it was built for: the map is rebuilt when the
    #: cell list grows (appended rows).  Its own size is no such count, as a
    #: cell listed twice has one key.
    _index: dict[Cell, int] | None = field(
        default=None, repr=False, compare=False
    )
    _indexed: int = field(default=0, repr=False, compare=False)

    @property
    def error_cells(self) -> set[Cell]:
        return {
            c for c, p in zip(self.cells, self.probabilities) if p >= self.threshold
        }

    def index_of(self, cell: Cell) -> int:
        """Position of ``cell`` in :attr:`cells` (O(1) after the first call)."""
        if self._index is None or self._indexed != len(self.cells):
            self._index = {c: i for i, c in enumerate(self.cells)}
            self._indexed = len(self.cells)
        try:
            return self._index[cell]
        except KeyError:
            raise KeyError(f"no prediction for {cell}") from None

    def probability(self, cell: Cell) -> float:
        """Calibrated error probability of one cell."""
        return float(self.probabilities[self.index_of(cell)])

    def is_error(self, cell: Cell) -> bool:
        return bool(self.probabilities[self.index_of(cell)] >= self.threshold)

    def as_dict(self) -> dict[Cell, float]:
        return dict(zip(self.cells, self.probabilities))


class HoloDetect:
    """Few-shot error detector with learned data augmentation (AUG).

    Every detector is its :class:`~repro.spec.DetectorSpec`: featurizers,
    augmentation policy and calibrator are :mod:`repro.registry` components
    the spec names, and the spec's ``[detector]`` table is the config.
    ``HoloDetect.from_spec(spec)`` (or ``repro.build``) keeps the spec it is
    given; ``HoloDetect(DetectorConfig(...))`` derives
    ``DetectorSpec.default(**fields that differ from their defaults)``,
    leaving ``artifact_dir`` out, so it is the default component set and
    fingerprints as that spec does.
    """

    def __init__(
        self, config: DetectorConfig | None = None, *, spec: DetectorSpec | None = None
    ):
        self.config = config or DetectorConfig()
        #: The :class:`~repro.spec.DetectorSpec` this detector is built
        #: from.  Persisted by :mod:`repro.persistence` alongside the
        #: weights; its fingerprint routes served requests.
        self.spec = spec or DetectorSpec.default(
            **{
                f.name: getattr(self.config, f.name)
                for f in fields(DetectorConfig)
                if f.name != "artifact_dir" and getattr(self.config, f.name) != f.default
            }
        )
        self.pipeline: FeaturePipeline | None = None
        self.model: JointModel | None = None
        self.scaler: PlattScaler | None = None
        self.policy: Policy | None = None
        self._artifact_store: ArtifactStore | None = (
            ArtifactStore(directory=self.config.artifact_dir)
            if self.config.artifact_dir
            else None
        )
        #: Artifact keys consulted/stored by the last ``fit`` (labelled
        #: ``model`` or ``model/<column>``); persisted with the detector.
        self.artifact_keys: dict[str, str] = {}
        self.augmented_count = 0
        #: Wall-clock seconds of the last ``fit`` (keys ``fit``,
        #: ``featurize``, ``train``) and the last ``predict`` (key
        #: ``predict``).  Surfaced in ``repro.detect/v1`` reports and
        #: serving responses.
        self.timings: dict[str, float] = {}
        self._dataset: Dataset | None = None
        self._train_cells: set[Cell] = set()

    @classmethod
    def from_spec(cls, spec) -> "HoloDetect":
        """Construct an (unfitted) detector from a declarative spec.

        ``spec`` is a :class:`~repro.spec.DetectorSpec`, a mapping in the
        ``repro.spec/v1`` layout, or a path to a ``.toml``/``.json`` spec
        file.  The spec is validated eagerly; component resolution errors
        surface here, not inside :meth:`fit`.
        """
        from repro.spec import load_spec

        spec = load_spec(spec)
        # Directly-constructed DetectorSpec instances skip from_dict, so
        # validate here: every construction path fails fast, never in fit().
        spec.validate()
        config_kwargs = dict(spec.detector)
        artifacts = dict(spec.artifacts)
        if artifacts.get("dir") is not None:
            # The [artifacts] table is the only spec-able home for the
            # store directory (validate() rejects it under [detector], so
            # it can never enter the fingerprint).
            config_kwargs["artifact_dir"] = artifacts["dir"]
        return cls(DetectorConfig(**config_kwargs), spec=spec)

    @property
    def artifacts(self) -> ArtifactStore | None:
        """The fitted-artifact store in effect: the detector's own
        (:meth:`use_artifacts`, ``artifact_dir``), else the ambient one of
        the calling thread (:func:`repro.artifacts.get_default_store`: a
        sweep's), else ``None``.  :meth:`fit` and a refreshing
        :class:`DetectionSession` install it around the pipeline's fit and
        refresh, the one route by which a store reaches the featurizers."""
        # Explicit None check: an empty store is len()-falsy but valid.
        if self._artifact_store is not None:
            return self._artifact_store
        return get_default_store()

    @property
    def artifact_stats(self) -> ArtifactStats | None:
        """Artifact-store accounting, or ``None`` when no store is in effect."""
        store = self.artifacts
        return store.stats if store is not None else None

    def use_artifacts(
        self, store: "ArtifactStore | str | PurePath | None"
    ) -> "HoloDetect":
        """Attach a fitted-artifact store after construction.

        Covers detectors whose config was not in the caller's hands — ones
        built from a spec or reloaded from disk (``repro detect --spec
        ... --artifacts DIR``, ``repro rescore --model ... --artifacts
        DIR``).  The store is read when it is used, so a later ``fit()``
        and a fitted detector's refreshing rescores both consult it.

        ``None`` clears the *explicitly attached* store only: an ambient
        store (a sweep's), when installed, still applies — detaching from
        it is the job of whoever installed it
        (:func:`repro.artifacts.use_store`).
        """
        if isinstance(store, (str, PurePath)):
            store = ArtifactStore(directory=store)
        self._artifact_store = store
        return self

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #

    def fit(
        self,
        dataset: Dataset,
        training: TrainingSet,
        constraints: Sequence[DenialConstraint] | None = None,
    ) -> "HoloDetect":
        """Learn the channel, the representation, and the classifier."""
        from time import perf_counter

        cfg = self.config
        pipeline = self._build_pipeline(constraints)
        rng = as_generator(cfg.seed)
        t_fit = perf_counter()
        train_main, holdout = training.split_holdout(cfg.holdout_fraction, rng=rng)
        if len(train_main) == 0:
            raise ValueError("training set is empty after holdout split")

        # Module 2: representation model Q.  With an artifact store in
        # effect, fitted embeddings and featurizer states are served from
        # it; a warm fit is bit-identical to a cold one because embedding
        # training seeds derive from content, not from the shared stream.
        t0 = perf_counter()
        with use_store(self.artifacts):
            pipeline.fit(dataset)
        if pipeline.numeric_dim == 0 and not pipeline.branch_dims:
            # Only the fitted pipeline shows this: widths depend on the
            # input (constraint_violations has none without Σ).
            raise SpecError(
                f"featurizers {pipeline.model_names} yield no features"
                + ("" if constraints else " without denial constraints")
            )
        # Both refusals come before any state changes, so a fitted detector
        # stays usable.
        self.timings = {"featurize": perf_counter() - t0}
        self._dataset = dataset
        self._train_cells = set(training.cells)
        self.pipeline = pipeline
        self.artifact_keys = self.pipeline.artifact_keys

        # Module 1: noisy channel learning + augmentation.
        examples: list[LabeledCell] = list(train_main)
        if cfg.augment:
            self.policy = self._resolve_policy(dataset, train_main)
            result = augment_training_set(
                train_main,
                self.policy,
                alpha=cfg.alpha,
                target_ratio=cfg.target_ratio,
                rng=rng,
            )
            self.augmented_count = len(result)
            examples.extend(result.examples)

        # Module 3: joint training + calibration.
        features = self.pipeline.transform(
            [e.cell for e in examples], dataset, values=[e.observed for e in examples]
        )
        labels = np.array([1 if e.is_error else 0 for e in examples], dtype=np.int64)
        self.model = JointModel(
            numeric_dim=self.pipeline.numeric_dim,
            branch_dims=self.pipeline.branch_dims,
            hidden_dim=cfg.hidden_dim,
            dropout=cfg.dropout,
            rng=rng,
        )
        t0 = perf_counter()
        train_model(
            self.model,
            features,
            labels,
            TrainerConfig(
                epochs=cfg.epochs,
                batch_size=cfg.batch_size,
                lr=cfg.lr,
                weight_decay=cfg.weight_decay,
                min_steps=cfg.min_training_steps,
                seed=int(rng.integers(0, 2**31)),
            ),
        )
        self.timings["train"] = perf_counter() - t0

        self.scaler = REGISTRY.create("calibrator", *self.spec.calibrator)
        if len(holdout) > 0:
            hold_features = self.pipeline.transform(
                [e.cell for e in holdout], dataset, values=[e.observed for e in holdout]
            )
            hold_scores = self.model.error_scores(hold_features)
            hold_targets = np.array([1.0 if e.is_error else 0.0 for e in holdout])
            self.scaler.fit(hold_scores, hold_targets)
        else:
            self.scaler.fit(np.zeros(0), np.zeros(0))
        self.timings["fit"] = perf_counter() - t_fit
        return self

    def _build_pipeline(self, constraints) -> FeaturePipeline:
        """The representation model Q: the spec's ``featurizers``, or
        :func:`~repro.features.pipeline.default_model_names` (Table 7) when
        the spec leaves them out.

        The detector deliberately does *not* thread its RNG stream into the
        featurizers: embedding training seeds derive from corpus content
        and component config (:mod:`repro.artifacts.keys`), which is what
        makes fitted artifacts reusable across detector seeds, label
        budgets, and trials, and keeps a store-served warm fit bit-identical
        to a cold one.  (Versioned behaviour change — see "Fit-path
        artifacts" in ``docs/architecture.md``.)
        """
        entries = self.spec.featurizers
        if entries is None:
            entries = default_model_names(constraints)
        ctx = FeaturizerContext(
            constraints=list(constraints) if constraints else (),
            embedding_dim=self.config.embedding_dim,
            embedding_epochs=self.config.embedding_epochs,
        )
        return build_pipeline(list(entries), ctx)

    def _resolve_policy(self, dataset: Dataset, training: TrainingSet) -> Policy:
        """The augmentation policy the spec's policy component builds.

        The component builds to ``None`` (learn from data), a ready
        :class:`Policy` (use verbatim), or a callable wrapper applied to the
        learned policy (e.g. the Table 4 uniform ablation).
        """
        component = REGISTRY.create("policy", *self.spec.policy)
        if component is None:
            return self._learn_policy(dataset, training)
        if isinstance(component, Policy):
            return component
        if callable(component):
            return component(self._learn_policy(dataset, training))
        raise TypeError(
            f"policy component built {type(component).__name__}; expected "
            "None, a Policy, or a callable Policy wrapper"
        )

    def _learn_policy(self, dataset: Dataset, training: TrainingSet) -> Policy:
        """Learn (Φ, Π̂) from T's errors, topped up by weak supervision (§5.4)."""
        return Policy.learn(
            channel_examples(
                dataset,
                training,
                min_error_pairs=self.config.min_error_pairs,
                max_cells=self.config.weak_supervision_max_cells,
            )
        )

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #

    def predict(self, cells: Sequence[Cell] | None = None) -> ErrorPredictions:
        """Calibrated error probabilities for ``cells``.

        Defaults to every cell of D outside the training set (the paper's
        prediction target, §3.3 Module 3).

        Prediction is chunked into ``config.prediction_batch``-cell batches.
        A repeated prediction reads what the first computed from the
        featurizers' memos (:class:`~repro.features.cache.FeatureCache`).
        """
        if self.model is None or self.pipeline is None or self._dataset is None:
            raise RuntimeError("detector used before fit()")
        if cells is None:
            cells = [c for c in self._dataset.cells() if c not in self._train_cells]
        cells = list(cells)
        return ErrorPredictions(
            cells=cells, probabilities=self._score_probabilities(cells)
        )

    def iter_predict(
        self, cells: Iterable[Cell] | None = None
    ) -> Iterator[tuple[Cell, float]]:
        """Stream ``(cell, probability)`` pairs without materialising scores.

        The out-of-core counterpart of :meth:`predict`: ``cells`` may be any
        (lazy) iterable — by default every cell of D outside the training
        set, produced one at a time — and cells are buffered into
        ``config.prediction_batch``-cell chunks as they arrive.  Peak memory
        is one chunk's features, independent of the relation's size.

        Chunks are scored like :meth:`predict`'s (padded to a multiple of
        :data:`SCORE_QUANTUM` rows), so for the same cells the streamed
        probabilities are bit-identical to a ``predict`` pass.
        """
        if self.model is None or self.pipeline is None or self._dataset is None:
            raise RuntimeError("detector used before fit()")
        if cells is None:
            cells = (
                c for c in self._dataset.cells() if c not in self._train_cells
            )
        for chunk, probabilities in self._scored_chunks(cells):
            yield from zip(chunk, (float(p) for p in probabilities))

    def _scored_chunks(
        self, cells: Iterable[Cell]
    ) -> Iterator[tuple[list[Cell], np.ndarray]]:
        """The one prediction loop: ``cells`` featurised and scored in
        consecutive ``config.prediction_batch``-cell chunks."""
        batch = max(1, self.config.prediction_batch)
        cells = iter(cells)
        while chunk := list(islice(cells, batch)):
            features = self.pipeline.transform_batch(CellBatch(chunk, self._dataset))
            yield chunk, self._score_features(features)

    def _score_features(self, features: CellFeatures) -> np.ndarray:
        """Calibrated probabilities for one chunk's transformed features.

        The chunk is forwarded zero-padded to the next multiple of
        :data:`SCORE_QUANTUM` rows: BLAS kernel selection — and hence
        reduction order — is shape-dependent, and per-cell scores must not
        depend on chunk composition.  ``DetectionSession`` patches subsets
        and relies on bit-for-bit agreement with a full prediction pass.
        """
        n = features.batch_size
        rows = -(-n // SCORE_QUANTUM) * SCORE_QUANTUM

        def pad(block: np.ndarray) -> np.ndarray:
            filler = np.zeros((rows - block.shape[0], block.shape[1]), dtype=block.dtype)
            return np.concatenate([block, filler], axis=0)

        if n < rows:
            features = CellFeatures(
                numeric=pad(features.numeric),
                branches={k: pad(v) for k, v in features.branches.items()},
            )
        scores = self.model.error_scores(features)[:n]
        return self.scaler.probability(scores)

    def _score_probabilities(self, cells: list[Cell]) -> np.ndarray:
        """Calibrated probabilities for an explicit cell list (chunked).

        Per-cell outputs are independent of chunk composition, so callers
        (``predict``, ``DetectionSession``) may chunk any subset of cells
        and obtain the same per-cell values.
        """
        from time import perf_counter

        t_predict = perf_counter()
        scored = [probabilities for _, probabilities in self._scored_chunks(cells)]
        self.timings["predict"] = perf_counter() - t_predict
        return np.concatenate(scored) if scored else np.zeros(0)

    def predict_error_cells(self, cells: Sequence[Cell] | None = None) -> set[Cell]:
        """Convenience wrapper returning just the flagged cells."""
        return self.predict(cells).error_cells


class DetectionSession:
    """Incremental re-scoring loop around a fitted :class:`HoloDetect`.

    The paper's deployment loop (§6, Fig. 4) is interactive: a user repairs
    or labels a few cells, the detector re-scores, and the loop repeats.  A
    full ``predict()`` re-featurizes and re-scores *every* cell after each
    repair; a session instead re-scores only the cells whose features an
    edit can actually change, derived from the pipeline's featurizer scopes:

    - the **edited cells** themselves (their value — hence every
      attribute-scoped feature — changed);
    - their **row-mates**, when any tuple-scoped model is in the pipeline
      (co-occurrence and tuple-embedding features read the whole tuple);
    - **everything**, only if a dataset-scoped model is present (none of
      the built-in models are dataset-scoped at transform time).

    The patched probabilities are identical to a fresh full ``predict()``
    on the edited dataset — the session never trades accuracy for speed
    (``benchmarks/bench_incremental.py`` asserts bit-for-bit equality).

    Usage::

        session = DetectionSession(detector)          # initial full pass
        session.apply({Cell(3, "city"): "Chicago"})   # repair → fast re-score
        session.predictions.probability(Cell(3, "city"))

    ``apply(..., refresh=True)`` additionally refits the representation
    models that the edit dirties (per-column for attribute-context models)
    via :meth:`FeaturePipeline.refresh`, then re-scores every cell whose
    features a refit model touches — the whole column for a refitted
    per-column model, everything for a refitted tuple/dataset-context model.
    """

    def __init__(
        self,
        detector: HoloDetect,
        cells: Sequence[Cell] | None = None,
        predictions: ErrorPredictions | None = None,
    ):
        if detector.model is None or detector.pipeline is None or detector._dataset is None:
            raise RuntimeError("DetectionSession needs a fitted detector")
        self.detector = detector
        self.dataset: Dataset = detector._dataset
        #: Live predictions, patched in place by :meth:`apply` / :meth:`append`.
        #: Passing ``predictions`` from an earlier ``detector.predict()`` of
        #: the *current* dataset state skips the initial full pass.
        self.predictions: ErrorPredictions = (
            predictions if predictions is not None else detector.predict(cells)
        )
        #: Cells re-scored across all incremental updates (accounting).
        self.rescored_cells = 0
        #: Effective cell edits applied across all :meth:`apply` calls.
        self.applied_edits = 0
        self.last_delta: DatasetDelta | None = None

    @property
    def scopes(self) -> set[FeatureContext]:
        """The transform-time scopes present in the detector's pipeline."""
        return {f.scope for f in self.detector.pipeline.featurizers}

    def apply(
        self,
        edits: Mapping[Cell, str] | Iterable[tuple[Cell, str]],
        *,
        refresh: bool = False,
    ) -> ErrorPredictions:
        """Apply cell repairs to the dataset and re-score affected cells.

        Returns the session's predictions with probabilities patched in
        place.  ``refresh=True`` also refits the dirtied representation
        models before re-scoring (see class docstring).
        """
        delta = self.dataset.apply_edits(edits)
        return self._rescore(delta, refresh=refresh)

    def append(
        self, rows: Iterable[Sequence[str]], *, refresh: bool = False
    ) -> ErrorPredictions:
        """Append new tuples and score their cells (plus any ripple effects)."""
        delta = self.dataset.append_rows(rows)
        return self._rescore(delta, refresh=refresh)

    def _rescore(self, delta: DatasetDelta, *, refresh: bool = False) -> ErrorPredictions:
        self.last_delta = delta
        if delta.is_empty:
            return self.predictions
        self.applied_edits += len(delta.cells)
        refitted: list[str] = []
        if refresh:
            with use_store(self.detector.artifacts):
                refitted = self.detector.pipeline.refresh(self.dataset, delta)
            if refitted:
                # Refits may serve/store fresh artifacts; keep the
                # detector's provenance keys current (merge — models not
                # refitted keep their fit-time keys).
                self.detector.artifact_keys.update(
                    self.detector.pipeline.artifact_keys
                )
        # New rows become new prediction targets, appended in row order.
        appended_cells = [
            cell
            for row in delta.appended
            for cell in self.dataset.cells_of_row(row)
            if cell not in self.detector._train_cells
        ]
        if appended_cells:
            preds = self.predictions
            preds.cells.extend(appended_cells)
            preds.probabilities = np.concatenate(
                [preds.probabilities, np.zeros(len(appended_cells))]
            )
            preds._index = None
        positions = self._affected_positions(delta, refitted, appended_cells)
        if positions:
            affected = [self.predictions.cells[i] for i in positions]
            self.predictions.probabilities[positions] = (
                self.detector._score_probabilities(affected)
            )
            self.rescored_cells += len(affected)
        return self.predictions

    def _affected_positions(
        self,
        delta: DatasetDelta,
        refitted: Sequence[str],
        appended_cells: Sequence[Cell] = (),
    ) -> list[int]:
        """Positions of the prediction cells whose features ``delta`` can
        change.

        Derived from the scopes of the pipeline's (possibly just refitted)
        featurizers; see the class docstring for the rules.  Ascending, so
        the cells keep the prediction order and chunking stays
        deterministic.
        """
        pipeline = self.detector.pipeline
        predicted = self.predictions
        refit_by_name = {f.name: f for f in pipeline.featurizers if f.name in refitted}
        # A refitted model with relation-wide fit statistics invalidates
        # every block it feeds; a refitted per-column model the touched
        # columns; an untouched pipeline only what the scopes imply.
        everything = FeatureContext.DATASET in self.scopes or any(
            f.context is not FeatureContext.ATTRIBUTE for f in refit_by_name.values()
        )
        if everything:
            return list(range(len(predicted.cells)))
        # Appended cells have no score yet — always (re)score them.
        edited = set(delta.cells) | set(appended_cells)
        # Hashing a Cell runs Python code; most cells fail the int test.
        edited_rows = {cell.row for cell in edited}
        rows = set(delta.rows)
        columns = set(delta.columns) if refit_by_name else set()
        row_scoped = FeatureContext.TUPLE in self.scopes
        return [
            i
            for i, cell in enumerate(predicted.cells)
            if (cell.row in edited_rows and cell in edited)
            or (row_scoped and cell.row in rows)
            or cell.attr in columns
        ]
