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

from dataclasses import dataclass, field
from pathlib import PurePath
from itertools import islice
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.artifacts import ArtifactStats, ArtifactStore, get_default_store
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
from repro.features.cache import CacheStats
from repro.features.pipeline import CellFeatures, FeaturePipeline, default_pipeline
from repro.utils.rng import as_generator
from repro.utils.specfile import require_int


@dataclass
class DetectorConfig:
    """All knobs of the detector, defaulted for laptop-scale runs.

    The paper's configuration (500 epochs, batch 5, 50-dim embeddings) is a
    valid setting of the same fields.
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
    calibrate: bool = True
    #: Learn the channel from weak supervision when T has fewer error pairs.
    min_error_pairs: int = 10
    #: Cap on cells scanned by the Naive Bayes weak-supervision model.
    weak_supervision_max_cells: int = 20_000
    #: Representation models to drop (ablation studies).
    exclude_models: tuple[str, ...] = ()
    #: Cells featurised per prediction chunk.  Every chunk is scored at
    #: this fixed shape, so a cell's probability does not depend on which
    #: other cells share its chunk.
    prediction_batch: int = 512
    #: Directory of an on-disk fitted-artifact store (:mod:`repro.artifacts`)
    #: shared across fits and processes; ``None`` = no disk tier.
    artifact_dir: str | None = None
    #: Explicit :class:`~repro.artifacts.ArtifactStore` instance (wins over
    #: ``artifact_dir``).  When both are unset the detector falls back to
    #: the process-ambient store installed by sweep workers, if any.
    artifact_store: ArtifactStore | None = field(
        default=None, repr=False, compare=False
    )
    seed: int = 0
    #: Override the learned policy (augmentation-strategy ablations, Table 4).
    policy_override: Policy | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        """Reject out-of-range values at construction time.

        Bad values used to surface deep inside training (a negative epoch
        count silently trained zero steps; a holdout fraction of 1.0 emptied
        the training set); every check here names the field, the offending
        value, and the valid range.
        """
        self.exclude_models = tuple(self.exclude_models)

        def fraction(name: str, *, closed_top: bool = False) -> None:
            value = getattr(self, name)
            top_ok = value <= 1.0 if closed_top else value < 1.0
            if not isinstance(value, (int, float)) or not (0.0 <= value and top_ok):
                bound = "[0, 1]" if closed_top else "[0, 1)"
                raise ValueError(f"{name} must be in {bound}, got {value!r}")

        for name, minimum in (
            ("embedding_dim", 1), ("embedding_epochs", 1), ("hidden_dim", 1),
            ("epochs", 1), ("batch_size", 1), ("prediction_batch", 1),
            ("min_training_steps", 0), ("min_error_pairs", 0),
            ("weak_supervision_max_cells", 1), ("seed", 0),
        ):
            require_int(name, getattr(self, name), minimum)
        fraction("dropout")
        fraction("holdout_fraction")
        if not isinstance(self.lr, (int, float)) or not self.lr > 0:
            raise ValueError(f"lr must be positive, got {self.lr!r}")
        if not isinstance(self.weight_decay, (int, float)) or self.weight_decay < 0:
            raise ValueError(
                f"weight_decay must be non-negative, got {self.weight_decay!r}"
            )
        if not isinstance(self.alpha, (int, float)) or not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha!r}")
        if self.target_ratio is not None and (
            not isinstance(self.target_ratio, (int, float)) or not self.target_ratio > 0
        ):
            raise ValueError(
                f"target_ratio must be positive or None, got {self.target_ratio!r}"
            )
        if self.artifact_dir is not None and not isinstance(
            self.artifact_dir, (str, PurePath)
        ):
            raise ValueError(
                f"artifact_dir must be a path string or None, got {self.artifact_dir!r}"
            )
        if self.artifact_store is not None and not isinstance(
            self.artifact_store, ArtifactStore
        ):
            raise ValueError(
                f"artifact_store must be an ArtifactStore or None, "
                f"got {type(self.artifact_store).__name__}"
            )


@dataclass
class ErrorPredictions:
    """Cell-level predictions: calibrated error probabilities and labels."""

    cells: list[Cell]
    probabilities: np.ndarray
    threshold: float = 0.5
    #: Lazily built ``Cell -> position`` map backing O(1) lookups; rebuilt
    #: automatically when the cell list grows (appended rows).
    _index: dict[Cell, int] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def error_cells(self) -> set[Cell]:
        return {
            c for c, p in zip(self.cells, self.probabilities) if p >= self.threshold
        }

    def index_of(self, cell: Cell) -> int:
        """Position of ``cell`` in :attr:`cells` (O(1) after the first call)."""
        if self._index is None or len(self._index) != len(self.cells):
            self._index = {c: i for i, c in enumerate(self.cells)}
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

    Two construction paths build the *same* detector:

    - imperative — ``HoloDetect(DetectorConfig(...))``;
    - declarative — ``HoloDetect.from_spec(spec)`` (or ``repro.build``),
      where every component of the composition is a
      :mod:`repro.registry` reference carried by a
      :class:`~repro.spec.DetectorSpec`.

    A spec-built detector with the default component set is bit-identical
    in predictions to the imperative equivalent.
    """

    def __init__(self, config: DetectorConfig | None = None, *, spec=None):
        self.config = config or DetectorConfig()
        #: The :class:`~repro.spec.DetectorSpec` this detector was built
        #: from, or ``None`` for imperative construction.  Persisted by
        #: :mod:`repro.persistence` alongside the weights.
        self.spec = spec
        self.pipeline: FeaturePipeline | None = None
        self.model: JointModel | None = None
        self.scaler: PlattScaler | None = None
        self.policy: Policy | None = None
        self._artifact_store: ArtifactStore | None = (
            self.config.artifact_store
            if self.config.artifact_store is not None
            else (
                ArtifactStore(directory=self.config.artifact_dir)
                if self.config.artifact_dir
                else None
            )
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
    def cache_stats(self) -> CacheStats | None:
        """Accounting of the :class:`~repro.features.cache.FeatureCache` a
        caller assigned to the fitted ``pipeline.cache``, else ``None``."""
        cache = self.pipeline.cache if self.pipeline is not None else None
        return cache.stats if cache is not None else None

    @property
    def artifacts(self) -> ArtifactStore | None:
        """The fitted-artifact store in effect: the config's own store,
        else the process-ambient one (sweep workers), else ``None``."""
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
        DIR``).  An already-fitted pipeline is re-pointed too, so
        subsequent ``refresh``/refit work consults the new store.

        ``None`` clears the *explicitly attached* store only: the
        process-ambient store (sweep workers), when installed, still
        applies at the next ``fit()`` — detaching from the ambient tier is
        the ambience manager's job (:func:`repro.artifacts.use_store`).
        """
        if isinstance(store, (str, PurePath)):
            store = ArtifactStore(directory=store)
        self._artifact_store = store
        if self.pipeline is not None:
            self.pipeline.artifacts = store
            for featurizer in self.pipeline.featurizers:
                featurizer.artifact_store = store
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
        rng = as_generator(cfg.seed)
        self._dataset = dataset
        self._train_cells = set(training.cells)
        t_fit = perf_counter()
        self.timings = {}

        train_main, holdout = training.split_holdout(cfg.holdout_fraction, rng=rng)
        if len(train_main) == 0:
            raise ValueError("training set is empty after holdout split")

        # Module 2: representation model Q.  With an artifact store in
        # effect, fitted embeddings and featurizer states are served from
        # it; a warm fit is bit-identical to a cold one because embedding
        # training seeds derive from content, not from the shared stream.
        t0 = perf_counter()
        self.pipeline = self._build_pipeline(constraints)
        self.pipeline.artifacts = self.artifacts
        self.pipeline.fit(dataset)
        self.timings["featurize"] = perf_counter() - t0
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

        self.scaler = self._build_calibrator()
        if cfg.calibrate and len(holdout) > 0:
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
        """The representation model Q: spec-declared or the Table 7 default.

        The detector deliberately does *not* thread its RNG stream into the
        featurizers: embedding training seeds derive from corpus content
        and component config (:mod:`repro.artifacts.keys`), which is what
        makes fitted artifacts reusable across detector seeds, label
        budgets, and trials, and keeps a store-served warm fit bit-identical
        to a cold one.  (Versioned behaviour change — see "Fit-path
        artifacts" in ``docs/architecture.md``.)
        """
        cfg = self.config
        if self.spec is not None and self.spec.featurizers is not None:
            from repro.features.pipeline import FeaturizerContext, build_pipeline

            ctx = FeaturizerContext(
                constraints=list(constraints) if constraints else (),
                embedding_dim=cfg.embedding_dim,
                embedding_epochs=cfg.embedding_epochs,
            )
            return build_pipeline(list(self.spec.featurizers), ctx)
        return default_pipeline(
            constraints=constraints,
            embedding_dim=cfg.embedding_dim,
            embedding_epochs=cfg.embedding_epochs,
            exclude=cfg.exclude_models,
        )

    def _resolve_policy(self, dataset: Dataset, training: TrainingSet) -> Policy:
        """The augmentation policy: override, spec component, or learned.

        ``config.policy_override`` (the imperative path) wins; otherwise the
        spec's policy component builds to ``None`` (learn from data), a
        ready :class:`Policy` (use verbatim), or a callable wrapper applied
        to the learned policy (e.g. the Table 4 uniform ablation).
        """
        if self.config.policy_override is not None:
            return self.config.policy_override
        component = None
        if self.spec is not None:
            from repro.registry import REGISTRY

            name, params = self.spec.policy
            component = REGISTRY.create("policy", name, params)
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

    def _build_calibrator(self) -> PlattScaler:
        """The calibrator: spec component or the default Platt scaler."""
        if self.spec is not None:
            from repro.registry import REGISTRY

            name, params = self.spec.calibrator
            return REGISTRY.create("calibrator", name, params)
        return PlattScaler()

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
        With a :class:`~repro.features.cache.FeatureCache` attached to the
        pipeline, a repeated prediction over the same cells reuses every
        transformed block.
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

        Chunk boundaries match :meth:`predict` exactly (same batch size,
        same fixed-shape padding of the trailing chunk), so for the same
        cell sequence the streamed probabilities are bit-identical to a
        ``predict`` pass.
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

        Every chunk is forwarded at the fixed ``prediction_batch`` shape
        (short chunks are zero-padded): BLAS kernel selection — and hence
        reduction order — is shape-dependent, and per-cell scores must not
        depend on chunk composition.  ``DetectionSession`` patches subsets
        and relies on bit-for-bit agreement with a full prediction pass.
        """
        batch = max(1, self.config.prediction_batch)
        n = features.batch_size

        def pad(block: np.ndarray) -> np.ndarray:
            filler = np.zeros((batch - block.shape[0], block.shape[1]), dtype=block.dtype)
            return np.concatenate([block, filler], axis=0)

        if n < batch:
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
        affected = self._affected_cells(delta, refitted, appended_cells)
        if affected:
            probabilities = self.detector._score_probabilities(affected)
            for cell, probability in zip(affected, probabilities):
                self.predictions.probabilities[
                    self.predictions.index_of(cell)
                ] = probability
            self.rescored_cells += len(affected)
        return self.predictions

    def _affected_cells(
        self,
        delta: DatasetDelta,
        refitted: Sequence[str],
        appended_cells: Sequence[Cell] = (),
    ) -> list[Cell]:
        """The prediction cells whose features ``delta`` can change.

        Derived from the scopes of the pipeline's (possibly just refitted)
        featurizers; see the class docstring for the rules.  Preserves the
        prediction order so chunking stays deterministic.
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
            return list(predicted.cells)
        # Appended cells have no score yet — always (re)score them.
        edited = set(delta.cells) | set(appended_cells)
        rows = set(delta.rows)
        columns = set(delta.columns) if refit_by_name else set()
        row_scoped = FeatureContext.TUPLE in self.scopes
        return [
            cell
            for cell in predicted.cells
            if cell in edited
            or (row_scoped and cell.row in rows)
            or cell.attr in columns
        ]
