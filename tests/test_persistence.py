"""Round-trip tests for detector persistence."""

import json

import numpy as np
import pytest

from repro.artifacts.store import flatten_arrays
from repro.augmentation.policy import Policy, UniformPolicy
from repro.augmentation.transformations import Transformation
from repro.constraints import functional_dependency, parse_denial_constraint
from repro.core import DetectionSession, DetectorConfig, HoloDetect
from repro.dataset import Cell
from repro.embeddings import FastTextEmbedding
from repro.evaluation import make_split
from repro.features import CellBatch
from repro.features.pipeline import FeaturizerContext, build_featurizer
from repro.persistence import detector_fingerprint, load_detector, save_detector
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


def encoded(state: dict) -> tuple:
    """A to_state() dict as (JSON text, array dtypes and bytes)."""
    arrays: dict = {}
    text = flatten_arrays(state, arrays, sort_keys=True)
    return text, [(a.dtype, a.tobytes()) for a in arrays.values()]


#: Every built-in featurizer, with non-default constructor arguments
#: where it takes any (the ten Table 7 models plus the two opt-in ones).
BUILT_IN_FEATURIZERS = [
    ("char_embedding", {"dim": 5, "epochs": 1}),
    ("word_embedding", {"dim": 5, "epochs": 1}),
    ("format_3gram", {"n": 2, "least_k": 2}),
    ("symbolic_3gram", {"n": 4, "least_k": 2}),
    ("empirical_dist", {}),
    ("column_id", {}),
    ("cooccurrence", {}),
    ("tuple_embedding", {"dim": 5, "epochs": 1}),
    ("neighborhood", {"dim": 5, "epochs": 1}),
    ("constraint_violations", {}),
    ("value_length", {}),
    ("token_frequency", {"alpha": 0.25}),
]


class TestFeaturizerStateRoundtrip:
    @pytest.fixture(scope="class")
    def bundle(self):
        from repro.data import load_dataset

        return load_dataset("hospital", num_rows=60, seed=3)

    @pytest.mark.parametrize(
        "name,params", BUILT_IN_FEATURIZERS, ids=[n for n, _ in BUILT_IN_FEATURIZERS]
    )
    def test_from_state_keeps_arguments_and_transforms(self, bundle, name, params):
        ctx = FeaturizerContext(constraints=bundle.constraints, rng=7)
        featurizer = build_featurizer(name, params, ctx).fit(bundle.dirty)
        restored = type(featurizer).from_state(featurizer.to_state())
        # The state holds the constructor arguments as well as the fitted
        # tables, so the rebuilt model re-encodes to the same state.
        assert encoded(restored.to_state()) == encoded(featurizer.to_state())
        assert restored.artifact_config() == featurizer.artifact_config()
        cells = list(bundle.dirty.cells())[::7]
        overrides = [bundle.dirty.value(c) + "x" if i % 3 else bundle.clean.value(c)
                     for i, c in enumerate(cells)]
        for values in (None, overrides):
            batch = CellBatch(cells, bundle.dirty, values)
            expected = featurizer.transform_batch(batch)
            assert restored.transform_batch(batch).tobytes() == expected.tobytes()


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
        a ``[compute]`` table; saves made while every detector built a
        feature cache carry ``feature_cache``/``cache_max_entries``/
        ``cache_max_bytes``, in the config and in a spec that set them.
        They load and predict bit-identically, with no cache attached."""
        import json

        from repro.persistence import detector_fingerprint
        from repro.spec import DetectorSpec

        bundle, split, detector = fitted
        save_detector(detector, tmp_path / "fresh")
        save_detector(detector, tmp_path / "legacy")
        state_path = tmp_path / "legacy" / "state.json"
        state = json.loads(state_path.read_text())
        cache_keys = dict(
            feature_cache=False, cache_max_entries=64, cache_max_bytes=1_000_000
        )
        state["config"].update(backend=None, compute_dtype="float64", **cache_keys)
        spec = DetectorSpec.default(epochs=8, embedding_dim=6, seed=0)
        spec_state = spec.to_dict()
        state["spec"] = {
            **spec_state,
            "detector": {**spec_state["detector"], **cache_keys},
            "compute": {"backend": "numpy", "dtype": "float64"},
        }
        state_path.write_text(json.dumps(state))

        legacy = load_detector(tmp_path / "legacy", bundle.dirty)
        fresh = load_detector(tmp_path / "fresh", bundle.dirty)
        cells = split.test_cells[:200]
        assert np.array_equal(
            legacy.predict(cells).probabilities, fresh.predict(cells).probabilities
        )
        assert legacy.cache_stats is None
        assert legacy.spec.fingerprint() == spec.fingerprint()
        # Without a spec.json sidecar the serving index recomputes it...
        assert detector_fingerprint(tmp_path / "legacy") == spec.fingerprint()
        # ...and a sidecar recorded with the retired keys is stale.
        sidecar = {"fingerprint": "0" * 64, "spec": state["spec"]}
        (tmp_path / "legacy" / "spec.json").write_text(json.dumps(sidecar))
        assert detector_fingerprint(tmp_path / "legacy") == spec.fingerprint()


class TestNonDefaultNGramRoundtrip:
    """A save keeps every featurizer constructor argument: a reloaded
    detector whose spec sets ``n = 2`` on the n-gram models refits with
    ``n = 2`` on a refresh, exactly like the original."""

    EDITS = {Cell(2, "City"): "Chicagoo", Cell(5, "ZipCode"): "6061x"}

    @pytest.fixture
    def fitted(self):
        from repro.data import load_dataset
        from repro.spec import SPEC_SCHEMA, DetectorSpec

        bundle = load_dataset("hospital", num_rows=80, seed=3)
        split = make_split(bundle, 0.2, rng=0)
        spec = DetectorSpec.from_dict(
            {
                "schema": SPEC_SCHEMA,
                "detector": {"epochs": 5, "embedding_dim": 6, "seed": 0},
                "featurizers": [
                    {"name": "format_3gram", "n": 2},
                    {"name": "symbolic_3gram", "n": 2},
                    "empirical_dist",
                    "column_id",
                    "cooccurrence",
                ],
            }
        )
        detector = spec.build()
        # Fitted on a copy: sessions edit the detector's relation in place.
        detector.fit(bundle.dirty.copy(), split.training, bundle.constraints)
        return bundle, detector

    def rescored(self, detector) -> np.ndarray:
        return DetectionSession(detector).apply(self.EDITS, refresh=True).probabilities

    def test_refresh_after_reload_matches_original(self, fitted, tmp_path):
        bundle, detector = fitted
        save_detector(detector, tmp_path / "model")
        loaded = load_detector(tmp_path / "model", bundle.dirty.copy())
        assert np.array_equal(self.rescored(loaded), self.rescored(detector))

    def test_save_without_new_state_keys_loads(self, fitted, tmp_path):
        """Saves from before featurizers owned their state lack the n-gram
        ``n`` and the embeddings' seed material, and carry the retired
        ``prediction_workers`` option (in the config, and in the spec when
        it set one, which also leaves a stale ``spec.json`` fingerprint).
        ``n`` is recovered from the per-column n-gram models."""
        bundle, detector = fitted
        path = tmp_path / "legacy"
        save_detector(detector, path)
        state = json.loads((path / "state.json").read_text())
        state["config"]["prediction_workers"] = 1
        state["spec"]["detector"]["prediction_workers"] = 1
        for entry in state["pipeline"]["featurizers"]:
            entry.pop("n", None)
            entry.pop("seed_material", None)
        (path / "state.json").write_text(json.dumps(state))
        sidecar = {"fingerprint": "0" * 64, "spec": state["spec"]}
        (path / "spec.json").write_text(json.dumps(sidecar))

        legacy = load_detector(path, bundle.dirty.copy())
        assert [f.to_state()["n"] for f in legacy.pipeline.featurizers[:2]] == [2, 2]
        cells = detector.predict().cells
        assert np.array_equal(
            legacy.predict(cells).probabilities, detector.predict(cells).probabilities
        )
        assert np.array_equal(self.rescored(legacy), self.rescored(detector))
        assert legacy.spec.fingerprint() == detector.spec.fingerprint()
        assert detector_fingerprint(path) == detector.spec.fingerprint()
