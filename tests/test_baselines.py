"""Unit + integration tests for all baseline detectors."""

import pytest

from repro.baselines import (
    ActiveLearningDetector,
    ConstraintViolationDetector,
    ForbiddenItemsetDetector,
    GroundTruthOracle,
    HoloCleanDetector,
    LogisticRegressionDetector,
    OutlierDetector,
    ResamplingDetector,
    SemiSupervisedDetector,
    build_method,
)
from repro.baselines.outlier import normalized_mutual_information
from repro.baselines.resampling import oversample_errors
from repro.core import DetectorConfig, HoloDetect
from repro.dataset import Cell
from repro.evaluation import evaluate_predictions, make_split

FAST = DetectorConfig(epochs=10, embedding_dim=8, seed=0)


@pytest.fixture(scope="module")
def hospital():
    from repro.data import load_dataset

    bundle = load_dataset("hospital", num_rows=200, seed=7)
    split = make_split(bundle, 0.12, rng=0)
    return bundle, split


class TestCV:
    def test_flags_typo_cells(self, zip_dataset, zip_fd, typo_cell):
        det = ConstraintViolationDetector().fit(zip_dataset, constraints=[zip_fd])
        flagged = det.predict_error_cells()
        assert typo_cell in flagged
        assert Cell(0, "city") in flagged  # whole violating group flagged

    def test_scoped_prediction(self, zip_dataset, zip_fd, typo_cell):
        det = ConstraintViolationDetector().fit(zip_dataset, constraints=[zip_fd])
        assert det.predict_error_cells([typo_cell]) == {typo_cell}
        assert det.predict_error_cells([Cell(4, "zip")]) == set()

    def test_no_constraints_flags_nothing(self, zip_dataset):
        det = ConstraintViolationDetector().fit(zip_dataset)
        assert det.predict_error_cells() == set()

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            ConstraintViolationDetector().predict_error_cells()


class TestHC:
    def test_more_precise_than_cv(self, hospital):
        bundle, split = hospital
        cv = ConstraintViolationDetector().fit(bundle.dirty, constraints=bundle.constraints)
        hc = HoloCleanDetector().fit(bundle.dirty, constraints=bundle.constraints)
        cv_m = evaluate_predictions(
            cv.predict_error_cells(split.test_cells), bundle.error_cells, split.test_cells
        )
        hc_m = evaluate_predictions(
            hc.predict_error_cells(split.test_cells), bundle.error_cells, split.test_cells
        )
        assert hc_m.precision >= cv_m.precision

    def test_flags_subset_of_cv(self, hospital):
        bundle, _ = hospital
        cv = ConstraintViolationDetector().fit(bundle.dirty, constraints=bundle.constraints)
        hc = HoloCleanDetector().fit(bundle.dirty, constraints=bundle.constraints)
        assert hc.predict_error_cells() <= cv.predict_error_cells()

    def test_no_constraints(self, zip_dataset):
        det = HoloCleanDetector().fit(zip_dataset)
        assert det.predict_error_cells() == set()


class TestOD:
    def test_nmi_bounds_and_extremes(self):
        perfect = ["a", "b"] * 20
        assert normalized_mutual_information(perfect, perfect) == pytest.approx(1.0)
        constant = ["x"] * 40
        assert normalized_mutual_information(perfect, constant) == 0.0

    def test_nmi_validates_input(self):
        with pytest.raises(ValueError):
            normalized_mutual_information(["a"], ["a", "b"])

    def test_flags_conditional_outlier(self):
        from repro.dataset import Dataset

        rows = [["60612", "Chicago"]] * 20 + [["02139", "Cambridge"]] * 20
        rows.append(["60612", "Cicago"])  # conditional outlier
        d = Dataset.from_rows(["zip", "city"], rows)
        det = OutlierDetector(correlation_threshold=0.2, probability_threshold=0.1)
        det.fit(d)
        flagged = det.predict_error_cells()
        assert Cell(40, "city") in flagged
        assert Cell(0, "city") not in flagged

    def test_conditional_is_not_divided_by_the_attribute_degree(self):
        """``P(t[A]=v | t[B]=w)`` divides by ``count(B=w)`` alone: with
        three perfectly correlated columns every conditional is 1, so no
        cell is an outlier, however many attributes B correlates with."""
        from repro.dataset import Dataset

        rows = [["x", "1", "p"]] * 10 + [["y", "2", "q"]] * 10
        d = Dataset.from_rows(["a", "b", "c"], rows)
        det = OutlierDetector(correlation_threshold=0.3, probability_threshold=0.6)
        assert det.fit(d).predict_error_cells() == set()


class TestFBI:
    def test_flags_low_lift_pair(self):
        from repro.dataset import Dataset

        # 'a'/'1' and 'b'/'2' pair strongly; one row pairs 'a' with '2'.
        rows = [["a", "1"]] * 20 + [["b", "2"]] * 20 + [["a", "2"]]
        d = Dataset.from_rows(["x", "y"], rows)
        det = ForbiddenItemsetDetector(max_lift=0.5, min_support=5).fit(d)
        flagged = det.predict_error_cells()
        assert Cell(40, "x") in flagged and Cell(40, "y") in flagged

    def test_rare_values_not_flaggable(self):
        from repro.dataset import Dataset

        rows = [["a", "1"]] * 20 + [["q", "9"]]  # 'q'/'9' below support
        d = Dataset.from_rows(["x", "y"], rows)
        det = ForbiddenItemsetDetector(min_support=5).fit(d)
        assert Cell(20, "x") not in det.predict_error_cells()

    def test_invalid_lift(self):
        with pytest.raises(ValueError):
            ForbiddenItemsetDetector(max_lift=0.0)


class TestLR:
    def test_requires_training(self, zip_dataset):
        with pytest.raises(ValueError):
            LogisticRegressionDetector().fit(zip_dataset)

    def test_runs_end_to_end(self, hospital):
        bundle, split = hospital
        det = LogisticRegressionDetector(epochs=50, seed=0)
        det.fit(bundle.dirty, split.training, bundle.constraints)
        flagged = det.predict_error_cells(split.test_cells)
        assert flagged <= set(split.test_cells)


class TestSuperL:
    """SuperL is HoloDetect with ``augment=False`` (the ``superl`` method)."""

    def test_high_precision_low_recall_profile(self, hospital):
        from dataclasses import replace

        bundle, split = hospital
        det = HoloDetect(replace(FAST, augment=False))
        det.fit(bundle.dirty, split.training, bundle.constraints)
        m = evaluate_predictions(
            det.predict_error_cells(split.test_cells), bundle.error_cells, split.test_cells
        )
        # SuperL precision should be decent even when recall is limited.
        assert m.precision >= m.recall or m.precision > 0.6

    def test_augment_forced_off(self, hospital, monkeypatch):
        import numpy as np

        bundle, split = hospital
        configs = []
        monkeypatch.setattr(
            HoloDetect, "fit", lambda self, *args: configs.append(self.config) or self
        )
        monkeypatch.setattr(HoloDetect, "predict_error_cells", lambda self, cells: set())
        build_method("superl", {"augment": True})(bundle, split, np.random.default_rng(0))
        assert [c.augment for c in configs] == [False]


class TestResampling:
    def test_oversample_balances(self, zip_training):
        balanced = oversample_errors(zip_training, rng=0)
        assert len(balanced.errors) == len(balanced.correct)

    def test_oversample_no_errors_noop(self):
        from repro.dataset import LabeledCell, TrainingSet

        ts = TrainingSet([LabeledCell(Cell(i, "a"), "v", "v") for i in range(5)])
        assert oversample_errors(ts, rng=0) is ts

    def test_detector_runs(self, hospital):
        bundle, split = hospital
        det = ResamplingDetector(FAST).fit(bundle.dirty, split.training, bundle.constraints)
        assert det.predict_error_cells(split.test_cells[:100]) is not None

    def test_requires_training(self, zip_dataset):
        with pytest.raises(ValueError):
            ResamplingDetector(FAST).fit(zip_dataset)


class TestSemiL:
    def test_runs_with_rounds(self, hospital):
        bundle, split = hospital
        det = SemiSupervisedDetector(FAST, rounds=1, unlabeled_pool_size=300)
        det.fit(bundle.dirty, split.training, bundle.constraints)
        assert det.predict_error_cells(split.test_cells[:50]) is not None

    def test_requires_training(self, zip_dataset):
        with pytest.raises(ValueError):
            SemiSupervisedDetector(FAST).fit(zip_dataset)


class TestActiveL:
    def test_oracle_counts_queries(self, hospital):
        bundle, _ = hospital
        oracle = GroundTruthOracle(bundle)
        example = oracle(Cell(0, bundle.dirty.attributes[0]))
        assert oracle.queries == 1
        assert example.observed == bundle.dirty.value(example.cell)

    def test_loop_acquires_labels(self, hospital):
        bundle, split = hospital
        oracle = GroundTruthOracle(bundle)
        det = ActiveLearningDetector(
            oracle, split.sampling_cells, loops=1, labels_per_loop=10, config=FAST
        )
        det.fit(bundle.dirty, split.training, bundle.constraints)
        assert det.total_queried == 10
        assert det.predict_error_cells(split.test_cells[:50]) is not None

    def test_requires_training(self, hospital):
        bundle, split = hospital
        det = ActiveLearningDetector(GroundTruthOracle(bundle), split.sampling_cells)
        with pytest.raises(ValueError):
            det.fit(bundle.dirty)


class TestUniformPolicyVariant:
    def test_uniform_policy_learned_transformations(self, hospital):
        from repro.augmentation.naive_bayes import channel_examples
        from repro.augmentation.policy import Policy
        from repro.registry import create

        bundle, split = hospital
        learned = Policy.learn(
            channel_examples(bundle.dirty, split.training, min_error_pairs=10, max_cells=20_000)
        )
        policy = create("policy", "uniform")(learned)
        assert len(policy) > 0
        conditional = policy.conditional("60612" if True else "")
        probs = set(round(p, 9) for p in conditional.values())
        assert len(probs) <= 1  # uniform over applicable
