"""Unit tests for TrainingSet and LabeledCell."""

import pytest

from repro.dataset import Cell, LabeledCell, TrainingSet


def example(row, attr, observed, true):
    return LabeledCell(Cell(row, attr), observed, true)


class TestLabeledCell:
    def test_error_label(self):
        assert example(0, "a", "x", "y").is_error
        assert example(0, "a", "x", "y").label == -1

    def test_correct_label(self):
        assert not example(0, "a", "x", "x").is_error
        assert example(0, "a", "x", "x").label == 1


class TestTrainingSet:
    def test_rejects_duplicate_cells(self):
        with pytest.raises(ValueError, match="duplicate"):
            TrainingSet([example(0, "a", "x", "x"), example(0, "a", "y", "y")])

    def test_partitions(self, zip_training):
        assert len(zip_training.errors) == 1
        assert len(zip_training.correct) == len(zip_training) - 1

    def test_error_pairs(self, zip_training):
        assert zip_training.error_pairs() == [("Chicago", "Cicago")]

    def test_from_cells(self, zip_dataset, zip_truth, typo_cell):
        ts = TrainingSet.from_cells([typo_cell], zip_dataset, zip_truth)
        assert len(ts) == 1
        assert ts[0].observed == "Cicago"
        assert ts[0].true == "Chicago"

    def test_extend_allows_repeated_cells(self, zip_training):
        extra = [example(0, "city", "Chicgo", "Chicago")]
        bigger = zip_training.extend(extra)
        assert len(bigger) == len(zip_training) + 1
        # original untouched
        assert len(zip_training.errors) == 1

    def test_split_holdout_disjoint_and_complete(self, zip_training):
        train, hold = zip_training.split_holdout(0.25, rng=0)
        assert len(train) + len(hold) == len(zip_training)
        assert set(train.cells).isdisjoint(hold.cells)

    def test_split_holdout_stratifies_minority(self):
        examples = [example(i, "a", "v", "v") for i in range(20)]
        examples += [example(i, "b", "x", "y") for i in range(2)]
        ts = TrainingSet(examples)
        train, hold = ts.split_holdout(0.2, rng=1)
        # At least one error on each side when the class has >= 2 members.
        assert any(e.is_error for e in train)
        assert any(e.is_error for e in hold)

    def test_split_holdout_zero_fraction(self, zip_training):
        train, hold = zip_training.split_holdout(0.0, rng=0)
        assert len(hold) == 0
        assert len(train) == len(zip_training)

    def test_split_holdout_invalid_fraction(self, zip_training):
        with pytest.raises(ValueError):
            zip_training.split_holdout(1.0)
        with pytest.raises(ValueError):
            zip_training.holdout_size(1.0)

    @pytest.mark.parametrize("fraction", [0.0, 0.1, 0.25, 0.5, 0.9])
    @pytest.mark.parametrize("clean, errors", [(0, 1), (1, 0), (2, 0), (2, 1), (5, 3), (20, 2)])
    def test_holdout_size_is_what_split_holdout_holds_out(self, clean, errors, fraction):
        examples = [example(i, "a", "v", "v") for i in range(clean)]
        examples += [example(i, "b", "x", "y") for i in range(errors)]
        ts = TrainingSet(examples)
        _, hold = ts.split_holdout(fraction, rng=3)
        assert ts.holdout_size(fraction) == len(hold)

    def test_iteration_and_indexing(self, zip_training):
        assert list(zip_training)[0] == zip_training[0]
