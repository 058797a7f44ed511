"""Integration tests for the HoloDetect detector (AUG)."""

import numpy as np
import pytest

from repro.core import DetectorConfig, HoloDetect
from repro.dataset import Cell
from repro.evaluation import evaluate_predictions, make_split
from repro.features import FeatureCache

FAST = DetectorConfig(epochs=20, embedding_dim=8, seed=0)


@pytest.fixture(scope="module")
def fitted(tiny_bundle_module):
    bundle, split = tiny_bundle_module
    detector = HoloDetect(FAST)
    detector.fit(bundle.dirty, split.training, bundle.constraints)
    return bundle, split, detector


@pytest.fixture(scope="module")
def tiny_bundle_module():
    from repro.data import load_dataset

    bundle = load_dataset("hospital", num_rows=300, seed=1)
    split = make_split(bundle, 0.10, rng=0)
    return bundle, split


class TestFit:
    def test_learns_policy_and_augments(self, fitted):
        _, _, detector = fitted
        assert detector.policy is not None
        assert len(detector.policy) > 0
        assert detector.augmented_count > 0

    def test_x_transformation_learned(self, fitted):
        """Hospital errors are 'x' typos — the channel must discover
        transformations that write an 'x'."""
        _, _, detector = fitted
        assert any("x" in t.dst for t in detector.policy.transformations)

    def test_empty_training_rejected(self, tiny_bundle_module):
        from repro.dataset import TrainingSet

        bundle, _ = tiny_bundle_module
        detector = HoloDetect(FAST)
        with pytest.raises(ValueError):
            detector.fit(bundle.dirty, TrainingSet([]))


class TestPredict:
    def test_detects_errors_better_than_chance(self, fitted):
        bundle, split, detector = fitted
        predictions = detector.predict(split.test_cells)
        metrics = evaluate_predictions(
            predictions.error_cells, bundle.error_cells, split.test_cells
        )
        assert metrics.f1 > 0.5  # modest bar for the tiny fast config

    def test_probabilities_in_unit_interval(self, fitted):
        _, split, detector = fitted
        predictions = detector.predict(split.test_cells[:50])
        assert np.all((0 <= predictions.probabilities) & (predictions.probabilities <= 1))

    def test_default_prediction_excludes_training_cells(self, fitted):
        _, split, detector = fitted
        predictions = detector.predict()
        assert set(predictions.cells).isdisjoint(split.training.cells)

    def test_error_predictions_helpers(self, fitted):
        _, split, detector = fitted
        predictions = detector.predict(split.test_cells[:20])
        cell = predictions.cells[0]
        assert isinstance(predictions.is_error(cell), bool)
        assert cell in predictions.as_dict()
        with pytest.raises(KeyError):
            predictions.is_error(Cell(999999, "nope"))

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            HoloDetect(FAST).predict()

    def test_feature_cache_is_opt_in(self, fitted):
        """No cache on the default path; an attached one changes no
        probability and serves the repeated prediction from its blocks."""
        _, split, detector = fitted
        assert detector.pipeline.cache is None and detector.cache_stats is None
        cells = split.test_cells[:300]
        baseline = detector.predict(cells).probabilities
        detector.pipeline.cache = FeatureCache()
        try:
            cold = detector.predict(cells).probabilities
            warm = detector.predict(cells).probabilities
            stats = detector.cache_stats
        finally:
            detector.pipeline.cache = None
        assert baseline.tobytes() == cold.tobytes() == warm.tobytes()
        assert stats.hits == stats.misses == len(detector.pipeline.featurizers)


class TestConfigVariants:
    def test_no_augmentation_supervised_mode(self, tiny_bundle_module):
        from dataclasses import replace

        bundle, split = tiny_bundle_module
        detector = HoloDetect(replace(FAST, augment=False))
        detector.fit(bundle.dirty, split.training, bundle.constraints)
        assert detector.augmented_count == 0
        assert detector.policy is None

    def test_target_ratio_controls_balance(self, tiny_bundle_module):
        from dataclasses import replace

        bundle, split = tiny_bundle_module
        detector = HoloDetect(replace(FAST, target_ratio=0.3))
        detector.fit(bundle.dirty, split.training, bundle.constraints)
        assert detector.augmented_count > 0

    def test_exclude_models_ablation(self, tiny_bundle_module):
        from dataclasses import replace

        bundle, split = tiny_bundle_module
        detector = HoloDetect(replace(FAST, exclude_models=("neighborhood",)))
        detector.fit(bundle.dirty, split.training, bundle.constraints)
        assert "neighborhood" not in detector.pipeline.model_names

    def test_without_constraints(self, tiny_bundle_module):
        bundle, split = tiny_bundle_module
        detector = HoloDetect(FAST)
        detector.fit(bundle.dirty, split.training, constraints=None)
        assert "constraint_violations" not in detector.pipeline.model_names
