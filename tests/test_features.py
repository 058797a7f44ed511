"""Unit tests for the representation model Q (featurizers + pipeline)."""

import numpy as np
import pytest

from repro.dataset import Cell, Dataset
from repro.features import (
    CharEmbeddingFeaturizer,
    ColumnIdFeaturizer,
    ConstraintViolationFeaturizer,
    CooccurrenceFeaturizer,
    EmpiricalDistributionFeaturizer,
    FeaturePipeline,
    FormatNGramFeaturizer,
    NeighborhoodFeaturizer,
    SymbolicNGramFeaturizer,
    TupleEmbeddingFeaturizer,
    WordEmbeddingFeaturizer,
    default_pipeline,
)
from repro.features.pipeline import (
    DEFAULT_MODEL_ORDER,
    FeaturizerContext,
    build_pipeline,
    default_model_names,
)


@pytest.fixture(scope="module")
def dataset():
    rows = [["60612", "Chicago", "IL"]] * 10 + [["02139", "Cambridge", "MA"]] * 10
    rows.append(["60612", "Cicago", "IL"])
    return Dataset.from_rows(["zip", "city", "state"], rows)


@pytest.fixture(scope="module")
def cells(dataset):
    return [Cell(0, "city"), Cell(20, "city"), Cell(0, "zip")]


class TestAttributeFeaturizers:
    def test_char_embedding_shape(self, dataset, cells):
        f = CharEmbeddingFeaturizer(dim=6, epochs=1).fit(dataset)
        out = f.transform(cells, dataset)
        assert out.shape == (3, 6)
        assert f.branch == "char"

    def test_word_embedding_shape(self, dataset, cells):
        f = WordEmbeddingFeaturizer(dim=6, epochs=1).fit(dataset)
        assert f.transform(cells, dataset).shape == (3, 6)

    def test_format_ngram_flags_typo(self, dataset):
        f = FormatNGramFeaturizer().fit(dataset)
        clean = f.transform([Cell(0, "city")], dataset)[0, 0]
        typo = f.transform([Cell(20, "city")], dataset)[0, 0]
        assert typo < clean  # log prob of rarest gram is lower for the typo

    def test_symbolic_ngram_dim(self, dataset, cells):
        f = SymbolicNGramFeaturizer().fit(dataset)
        assert f.transform(cells, dataset).shape == (3, 1)

    def test_empirical_dist_values(self, dataset):
        f = EmpiricalDistributionFeaturizer().fit(dataset)
        chicago = f.transform([Cell(0, "city")], dataset)[0, 0]
        cicago = f.transform([Cell(20, "city")], dataset)[0, 0]
        assert chicago == pytest.approx(10 / 21)
        assert cicago == pytest.approx(1 / 21)

    def test_column_id_onehot(self, dataset, cells):
        f = ColumnIdFeaturizer().fit(dataset)
        out = f.transform(cells, dataset)
        assert out.shape == (3, 3)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(3))

    def test_value_override(self, dataset):
        f = EmpiricalDistributionFeaturizer().fit(dataset)
        overridden = f.transform([Cell(0, "city")], dataset, values=["Cambridge"])
        assert overridden[0, 0] == pytest.approx(10 / 21)

    def test_override_length_mismatch(self, dataset):
        f = EmpiricalDistributionFeaturizer().fit(dataset)
        with pytest.raises(ValueError):
            f.transform([Cell(0, "city")], dataset, values=["a", "b"])

    def test_unfitted_raises(self, dataset, cells):
        with pytest.raises(RuntimeError):
            EmpiricalDistributionFeaturizer().transform(cells, dataset)


class TestTupleFeaturizers:
    def test_cooccurrence_flags_inconsistency(self, dataset):
        f = CooccurrenceFeaturizer().fit(dataset)
        clean = f.transform([Cell(0, "city")], dataset)
        # 'Chicago' always co-occurs with 60612/IL -> conditionals 1.0.
        assert clean.max() == pytest.approx(1.0)
        typo = f.transform([Cell(20, "city")], dataset)
        # 'Cicago' co-occurs with its own tuple only -> 1.0 too, but an
        # unseen value scores all-zero:
        unseen = f.transform([Cell(0, "city")], dataset, values=["Nowhere"])
        assert unseen.max() == 0.0

    def test_cooccurrence_dim(self, dataset):
        f = CooccurrenceFeaturizer().fit(dataset)
        assert f.dim == 2

    def test_tuple_embedding_shape(self, dataset, cells):
        f = TupleEmbeddingFeaturizer(dim=5, epochs=1).fit(dataset)
        assert f.transform(cells, dataset).shape == (3, 10)
        assert f.branch == "tuple"


class TestDatasetFeaturizers:
    def test_violation_counts(self, dataset, zip_fd):
        f = ConstraintViolationFeaturizer([zip_fd]).fit(dataset)
        out = f.transform([Cell(0, "city"), Cell(20, "city")], dataset)
        # Row 0 Chicago conflicts with row 20 Cicago (same zip).
        assert out[0, 0] > 0
        assert out[1, 0] > 0
        state_cell = f.transform([Cell(0, "state")], dataset)
        assert state_cell[0, 0] == 0.0  # attribute not in constraint

    def test_violation_override_reduces_count(self, dataset, zip_fd):
        f = ConstraintViolationFeaturizer([zip_fd]).fit(dataset)
        # Repairing the typo tuple's city to Chicago removes its violations.
        fixed = f.transform([Cell(20, "city")], dataset, values=["Chicago"])
        assert fixed[0, 0] == 0.0

    def test_violation_override_creates_count(self, dataset, zip_fd):
        f = ConstraintViolationFeaturizer([zip_fd]).fit(dataset)
        # Corrupting a clean tuple's city creates violations with the other
        # 9 clean tuples of the same zip (+1 vs the typo tuple's count 9).
        broken = f.transform([Cell(0, "city")], dataset, values=["Wrong"])
        assert broken[0, 0] > 0

    def test_neighborhood_distance_range(self, dataset, cells):
        f = NeighborhoodFeaturizer(dim=6, epochs=1).fit(dataset)
        out = f.transform(cells, dataset)
        assert out.shape == (3, 1)
        assert np.all(out >= 0.0) and np.all(out <= 2.0)


class TestPipeline:
    def test_default_pipeline_names(self, dataset, zip_fd):
        pipe = default_pipeline([zip_fd], embedding_dim=4)
        assert pipe.model_names == [*DEFAULT_MODEL_ORDER, "constraint_violations"]

    def test_without_constraints_drops_violation_model(self, dataset):
        pipe = default_pipeline(None, embedding_dim=4)
        assert "constraint_violations" not in pipe.model_names

    def test_transform_blocks(self, dataset, zip_fd, cells):
        pipe = default_pipeline([zip_fd], embedding_dim=4, embedding_epochs=1)
        pipe.fit(dataset)
        feats = pipe.transform(cells, dataset)
        assert feats.numeric.shape == (3, pipe.numeric_dim)
        assert set(feats.branches) == {"char", "word", "tuple"}
        assert feats.batch_size == 3

    def test_numeric_standardised_and_clipped(self, dataset, zip_fd):
        pipe = default_pipeline([zip_fd], embedding_dim=4, embedding_epochs=1)
        pipe.fit(dataset)
        feats = pipe.transform(list(dataset.cells()), dataset)
        assert np.abs(feats.numeric).max() <= 10.0

    def test_default_model_names_add_the_constraint_model_only_with_constraints(
        self, zip_fd
    ):
        assert default_model_names(None) == list(DEFAULT_MODEL_ORDER)
        assert default_model_names([]) == list(DEFAULT_MODEL_ORDER)
        assert default_model_names([zip_fd]) == [
            *DEFAULT_MODEL_ORDER, "constraint_violations",
        ]

    def test_exclusion_for_ablation(self):
        """Fig. 3's variants: Table 7's list less one model builds a
        pipeline of the others, in order."""
        names = [m for m in default_model_names(None) if m != "char_embedding"]
        pipe = build_pipeline(names, FeaturizerContext(embedding_dim=4))
        assert pipe.model_names == names

    def test_unknown_model_name_rejected(self):
        with pytest.raises(ValueError, match="unknown featurizer 'no_such_model'"):
            build_pipeline([*DEFAULT_MODEL_ORDER, "no_such_model"])

    def test_duplicate_names_rejected(self):
        f1, f2 = EmpiricalDistributionFeaturizer(), EmpiricalDistributionFeaturizer()
        with pytest.raises(ValueError, match="duplicate"):
            FeaturePipeline([f1, f2])

    def test_unfitted_transform_raises(self, dataset, cells):
        pipe = default_pipeline(None, embedding_dim=4)
        with pytest.raises(RuntimeError):
            pipe.transform(cells, dataset)
