"""Round-trip tests for detector persistence."""

import numpy as np
import pytest

from repro.augmentation.policy import Policy, UniformPolicy
from repro.augmentation.transformations import Transformation
from repro.constraints import functional_dependency, parse_denial_constraint
from repro.core import DetectorConfig, HoloDetect
from repro.embeddings import FastTextEmbedding
from repro.evaluation import make_split
from repro.persistence import load_detector, save_detector
from repro.persistence.detector_io import (
    decode_constraint,
    decode_policy,
    encode_constraint,
    encode_policy,
)
from repro.text.ngrams import NGramModel, SymbolicNGramModel


class TestComponentRoundtrips:
    def test_ngram_model(self):
        model = NGramModel(n=3).fit(["60612", "60614", "abc"])
        restored = NGramModel.from_state(model.to_state())
        for value in ("60612", "zzz", ""):
            assert restored.min_gram_probability(value) == model.min_gram_probability(value)

    def test_symbolic_ngram_model(self):
        model = SymbolicNGramModel(n=3).fit(["60612", "abc-1"])
        restored = SymbolicNGramModel.from_state(model.to_state())
        assert restored.min_gram_probability("99x99") == model.min_gram_probability("99x99")

    def test_fasttext(self):
        model = FastTextEmbedding(dim=6, epochs=1, rng=0).fit([["a", "b"], ["b", "c"]] * 5)
        restored = FastTextEmbedding.from_state(model.to_state())
        np.testing.assert_allclose(restored.vector("b"), model.vector("b"))
        np.testing.assert_allclose(
            restored.vector("unseen_word"), model.vector("unseen_word")
        )
        assert restored.nearest_neighbor_distance("a") == pytest.approx(
            model.nearest_neighbor_distance("a")
        )

    def test_unfitted_fasttext_rejected(self):
        with pytest.raises(RuntimeError):
            FastTextEmbedding().to_state()

    def test_constraint(self):
        for dc in (
            functional_dependency(["a", "b"], "c"),
            parse_denial_constraint("t1.x == 'IL' & t1.y != t2.y"),
        ):
            restored = decode_constraint(encode_constraint(dc))
            assert restored == dc

    def test_policy(self):
        policy = Policy.learn([("60612", "6x612"), ("ab", "axb")])
        restored = decode_policy(encode_policy(policy))
        assert set(restored.transformations) == set(policy.transformations)
        for t in policy.transformations:
            assert restored.probability(t) == pytest.approx(policy.probability(t))

    def test_uniform_policy_kind_preserved(self):
        policy = UniformPolicy([Transformation("a", "b"), Transformation("", "x")])
        restored = decode_policy(encode_policy(policy))
        assert isinstance(restored, UniformPolicy)


class TestDetectorRoundtrip:
    @pytest.fixture(scope="class")
    def fitted(self):
        from repro.data import load_dataset

        bundle = load_dataset("hospital", num_rows=150, seed=3)
        split = make_split(bundle, 0.15, rng=0)
        detector = HoloDetect(DetectorConfig(epochs=8, embedding_dim=6, seed=0))
        detector.fit(bundle.dirty, split.training, bundle.constraints)
        return bundle, split, detector

    def test_predictions_identical_after_roundtrip(self, fitted, tmp_path):
        bundle, split, detector = fitted
        save_detector(detector, tmp_path / "model")
        restored = load_detector(tmp_path / "model", bundle.dirty)
        cells = split.test_cells[:200]
        original = detector.predict(cells)
        loaded = restored.predict(cells)
        np.testing.assert_allclose(loaded.probabilities, original.probabilities)

    def test_metadata_preserved(self, fitted, tmp_path):
        bundle, _, detector = fitted
        save_detector(detector, tmp_path / "model")
        restored = load_detector(tmp_path / "model", bundle.dirty)
        assert restored.augmented_count == detector.augmented_count
        assert set(restored.policy.transformations) == set(detector.policy.transformations)
        assert restored.config.epochs == detector.config.epochs
        assert restored._train_cells == detector._train_cells

    def test_default_prediction_scope_preserved(self, fitted, tmp_path):
        bundle, _, detector = fitted
        save_detector(detector, tmp_path / "model")
        restored = load_detector(tmp_path / "model", bundle.dirty)
        assert set(restored.predict().cells) == set(detector.predict().cells)

    def test_saved_files_exist_and_no_pickle(self, fitted, tmp_path):
        bundle, _, detector = fitted
        save_detector(detector, tmp_path / "model")
        assert (tmp_path / "model" / "state.json").exists()
        assert (tmp_path / "model" / "arrays.npz").exists()

    def test_unfitted_save_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_detector(HoloDetect(), tmp_path / "nope")

    def test_version_check(self, fitted, tmp_path):
        import json

        bundle, _, detector = fitted
        save_detector(detector, tmp_path / "model")
        state_path = tmp_path / "model" / "state.json"
        state = json.loads(state_path.read_text())
        state["format_version"] = 999
        state_path.write_text(json.dumps(state))
        with pytest.raises(ValueError, match="version"):
            load_detector(tmp_path / "model", bundle.dirty)

    def test_save_with_retired_backend_options_loads(self, fitted, tmp_path):
        """Saves made while the training core had selectable backends carry
        ``backend``/``compute_dtype`` config keys and may embed a spec with
        a ``[compute]`` table; they load and predict bit-identically."""
        import json

        from repro.persistence import detector_fingerprint
        from repro.spec import DetectorSpec

        bundle, split, detector = fitted
        save_detector(detector, tmp_path / "fresh")
        save_detector(detector, tmp_path / "legacy")
        state_path = tmp_path / "legacy" / "state.json"
        state = json.loads(state_path.read_text())
        state["config"].update(backend=None, compute_dtype="float64")
        spec = DetectorSpec.default(epochs=8, embedding_dim=6, seed=0)
        state["spec"] = {
            **spec.to_dict(), "compute": {"backend": "numpy", "dtype": "float64"}
        }
        state_path.write_text(json.dumps(state))

        legacy = load_detector(tmp_path / "legacy", bundle.dirty)
        fresh = load_detector(tmp_path / "fresh", bundle.dirty)
        cells = split.test_cells[:200]
        assert np.array_equal(
            legacy.predict(cells).probabilities, fresh.predict(cells).probabilities
        )
        assert legacy.spec.fingerprint() == spec.fingerprint()
        # Without a spec.json sidecar the serving index recomputes it.
        assert detector_fingerprint(tmp_path / "legacy") == spec.fingerprint()
