"""Tests for the optional extra representation models."""

import numpy as np
import pytest

from repro.dataset import Cell, Dataset
from repro.features.extra import TokenFrequencyFeaturizer, ValueLengthFeaturizer
from repro.features.pipeline import FeaturePipeline


@pytest.fixture(scope="module")
def dataset():
    rows = [["60612", "Chicago"]] * 15 + [["02139", "Cambridge"]] * 15
    rows.append(["6061200", "Chicago"])  # length outlier in zip
    rows.append(["60612", "Zorgon"])  # rare token in city
    return Dataset.from_rows(["zip", "city"], rows)


class TestValueLength:
    def test_typical_length_near_zero(self, dataset):
        f = ValueLengthFeaturizer().fit(dataset)
        z = f.transform([Cell(0, "zip")], dataset)[0, 0]
        assert abs(z) < 1.0

    def test_outlier_length_flagged(self, dataset):
        f = ValueLengthFeaturizer().fit(dataset)
        z = f.transform([Cell(30, "zip")], dataset)[0, 0]
        assert z > 2.0

    def test_value_override(self, dataset):
        f = ValueLengthFeaturizer().fit(dataset)
        z = f.transform([Cell(0, "zip")], dataset, values=["123456789012"])[0, 0]
        assert z > 2.0

    def test_constant_column_safe(self):
        d = Dataset.from_rows(["a"], [["xx"]] * 5)
        f = ValueLengthFeaturizer().fit(d)
        assert f.transform([Cell(0, "a")], d)[0, 0] == 0.0

    def test_unfitted_raises(self, dataset):
        with pytest.raises(RuntimeError):
            ValueLengthFeaturizer().transform([Cell(0, "zip")], dataset)


class TestTokenFrequency:
    def test_common_token_higher_than_rare(self, dataset):
        f = TokenFrequencyFeaturizer().fit(dataset)
        common = f.transform([Cell(0, "city")], dataset)[0, 0]
        rare = f.transform([Cell(31, "city")], dataset)[0, 0]
        assert common > rare

    def test_unseen_token_lowest(self, dataset):
        f = TokenFrequencyFeaturizer().fit(dataset)
        seen = f.transform([Cell(31, "city")], dataset)[0, 0]
        unseen = f.transform([Cell(0, "city")], dataset, values=["Xyzzy"])[0, 0]
        assert unseen < seen

    def test_empty_value_handled(self, dataset):
        f = TokenFrequencyFeaturizer().fit(dataset)
        out = f.transform([Cell(0, "city")], dataset, values=[""])
        assert np.isfinite(out[0, 0])

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            TokenFrequencyFeaturizer(alpha=0.0)


class TestPipelineIntegration:
    def test_extra_models_compose_in_pipeline(self, dataset):
        pipeline = FeaturePipeline(
            [ValueLengthFeaturizer(), TokenFrequencyFeaturizer()]
        ).fit(dataset)
        feats = pipeline.transform([Cell(0, "zip"), Cell(30, "zip")], dataset)
        assert feats.numeric.shape == (2, 2)
        assert not feats.branches

    def test_detector_accepts_custom_pipeline_models(self, dataset):
        """Extra featurizers ride along via a manually built pipeline."""
        from repro.features import default_pipeline

        base = default_pipeline(None, embedding_dim=4, embedding_epochs=1)
        extended = FeaturePipeline(base.featurizers + [ValueLengthFeaturizer()])
        extended.fit(dataset)
        assert "value_length" in extended.model_names
        feats = extended.transform([Cell(0, "zip")], dataset)
        assert feats.numeric.shape[1] == extended.numeric_dim
