"""Integration tests for the HoloDetect detector (AUG)."""

import numpy as np
import pytest

from repro.core import DetectorConfig, HoloDetect
from repro.core.detector import SCORE_QUANTUM
from repro.dataset import Cell
from repro.evaluation import evaluate_predictions, make_split
from repro.features import CellBatch, CellFeatures

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


def _rows(features: CellFeatures, start: int, stop: int) -> CellFeatures:
    return CellFeatures(
        numeric=features.numeric[start:stop],
        branches={k: v[start:stop] for k, v in features.branches.items()},
    )


class TestScoreQuantum:
    """Scoring forwards a chunk padded to a multiple of ``SCORE_QUANTUM``
    rows, not to ``prediction_batch``.  That holds only while every such
    row count gives each row the bits of a full chunk, which BLAS does not
    promise; these tests pin it on the host's BLAS."""

    OFFSETS = (0, 5, 13)

    @pytest.fixture(scope="class")
    def chunk(self, fitted):
        """Features of ``prediction_batch`` cells plus the largest offset."""
        bundle, _, detector = fitted
        size = detector.config.prediction_batch + max(self.OFFSETS)
        cells = list(bundle.dirty.cells())[:size]
        return detector, detector.pipeline.transform_batch(CellBatch(cells, bundle.dirty))

    def test_quantum_multiples_reproduce_the_full_chunk(self, chunk):
        detector, features = chunk
        batch = detector.config.prediction_batch
        reference = detector.model.error_scores(_rows(features, 0, batch))
        for offset in self.OFFSETS:
            full = detector.model.error_scores(_rows(features, offset, offset + batch))
            # A cell's full-chunk score does not depend on where the chunk starts...
            assert full[: batch - offset].tobytes() == reference[offset:].tobytes()
            # ...nor on the chunk's row count, at every multiple of the quantum.
            for rows in range(SCORE_QUANTUM, batch + 1, SCORE_QUANTUM):
                scores = detector.model.error_scores(_rows(features, offset, offset + rows))
                assert scores.tobytes() == full[:rows].tobytes(), (offset, rows)

    def test_padded_chunks_reproduce_the_full_chunk(self, chunk):
        detector, features = chunk
        batch = detector.config.prediction_batch
        full = detector._score_features(_rows(features, 0, batch))
        for n in [*range(1, 2 * SCORE_QUANTUM + 2), batch // 2 + 3, batch - 1]:
            scores = detector._score_features(_rows(features, 0, n))
            assert scores.tobytes() == full[:n].tobytes(), n

    def test_prediction_batch_changes_no_probability(self, fitted, monkeypatch):
        """Full chunks round up to the quantum too, so a chunk size that is
        not a multiple of it scores the same bits as the default."""
        _, split, detector = fitted
        cells = split.test_cells[:700]
        expected = detector.predict(cells).probabilities
        for batch in (1, 50, 100, 333):
            monkeypatch.setattr(detector.config, "prediction_batch", batch)
            assert detector.predict(cells).probabilities.tobytes() == expected.tobytes()


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

    def test_spec_featurizers_ablation(self, tiny_bundle_module):
        """Fig. 3's variants are specs listing Table 7's models less one."""
        from dataclasses import replace

        from repro.features.pipeline import default_model_names

        bundle, split = tiny_bundle_module
        models = [m for m in default_model_names(bundle.constraints) if m != "neighborhood"]
        spec = replace(HoloDetect(FAST).spec, featurizers=[(m, {}) for m in models])
        detector = HoloDetect.from_spec(spec)
        detector.fit(bundle.dirty, split.training, bundle.constraints)
        assert detector.pipeline.model_names == models

    def test_without_constraints(self, tiny_bundle_module):
        bundle, split = tiny_bundle_module
        detector = HoloDetect(FAST)
        detector.fit(bundle.dirty, split.training, constraints=None)
        assert "constraint_violations" not in detector.pipeline.model_names

    def test_constraint_model_listed_without_constraints(self, tiny_bundle_module):
        """Without Σ the constraint model yields no feature: a spec that
        lists it beside Table 7's models fits, not an error inside
        ``fit()``, and predicts as the default spec does."""
        from dataclasses import replace

        from repro.features.pipeline import DEFAULT_MODEL_ORDER

        bundle, split = tiny_bundle_module
        plain = HoloDetect(FAST).fit(bundle.dirty, split.training, constraints=None)
        models = [*DEFAULT_MODEL_ORDER, "constraint_violations"]
        spec = replace(HoloDetect(FAST).spec, featurizers=[(m, {}) for m in models])
        listed = HoloDetect.from_spec(spec)
        listed.fit(bundle.dirty, split.training, constraints=None)
        assert listed.pipeline.model_names == models
        assert listed.pipeline.numeric_dim == plain.pipeline.numeric_dim
        assert listed.predict().probabilities.tobytes() == (
            plain.predict().probabilities.tobytes()
        )

    def test_refit_left_without_a_model_is_refused_before_any_change(self):
        """A spec whose one model is the constraint model fits with Σ; a
        refit of another relation without Σ yields no feature, is refused,
        and leaves the detector predicting its last fit's relation."""
        from repro.data import load_dataset
        from repro.spec import SPEC_SCHEMA, SpecError

        detector = HoloDetect.from_spec({
            "schema": SPEC_SCHEMA,
            "detector": {"epochs": 2, "min_training_steps": 20, "seed": 0},
            "featurizers": ["constraint_violations"],
        })
        small = load_dataset("hospital", num_rows=40, seed=5)
        detector.fit(small.dirty, make_split(small, 0.5, rng=0).training, small.constraints)
        before = detector.predict()

        grown = load_dataset("hospital", num_rows=60, seed=5)
        with pytest.raises(
            SpecError,
            match=r"featurizers \['constraint_violations'\] yield no features "
            "without denial constraints",
        ):
            detector.fit(grown.dirty, make_split(grown, 0.5, rng=0).training)
        assert detector._dataset is small.dirty
        assert detector.pipeline.model_names == ["constraint_violations"]
        after = detector.predict()
        assert after.cells == before.cells
        assert after.probabilities.tobytes() == before.probabilities.tobytes()

    def test_refit_emptied_by_the_holdout_is_refused_before_any_change(self):
        """A refit whose holdout split takes every label is refused, and the
        detector keeps predicting its last fit's relation."""
        from repro.data import load_dataset
        from repro.dataset import LabeledCell, TrainingSet

        small = load_dataset("hospital", num_rows=60, seed=5)
        config = DetectorConfig(
            epochs=2, embedding_dim=4, embedding_epochs=1, min_training_steps=20,
            holdout_fraction=0.9, seed=0,
        )
        detector = HoloDetect(config)
        detector.fit(small.dirty, make_split(small, 0.5, rng=0).training)
        before = detector.predict()

        grown = load_dataset("hospital", num_rows=80, seed=5)
        error = min(grown.error_cells, key=lambda c: (c.row, c.attr))
        clean = next(c for c in grown.dirty.cells() if c not in grown.error_cells)
        two_labels = TrainingSet([
            LabeledCell(cell, grown.dirty.value(cell), grown.clean.value(cell))
            for cell in (error, clean)
        ])
        with pytest.raises(ValueError, match="training set is empty after holdout split"):
            detector.fit(grown.dirty, two_labels)
        after = detector.predict()
        assert after.cells == before.cells
        assert after.probabilities.tobytes() == before.probabilities.tobytes()
