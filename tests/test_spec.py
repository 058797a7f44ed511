"""Tests for the declarative DetectorSpec public API (``repro.spec``).

Covers spec parsing/validation, fingerprint stability (hypothesis:
reordering keys and swapping shorthand/table component forms never changes
a fingerprint), the spec → build → fit → save → load round-trip with
bit-identical predictions, and the DetectorConfig eager validation that
backs it.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import DetectorConfig, DetectorSpec, HoloDetect, SpecError
from repro.evaluation import evaluate_predictions, make_split
from repro.features.pipeline import DEFAULT_MODEL_ORDER
from repro.persistence import load_detector, save_detector
from repro.persistence.detector_io import _RETIRED_CONFIG_FIELDS
from repro.spec import SPEC_SCHEMA, load_spec


# --------------------------------------------------------------------- #
# Parsing + validation
# --------------------------------------------------------------------- #


class TestSpecParsing:
    def test_schema_is_required(self):
        with pytest.raises(SpecError, match="schema"):
            DetectorSpec.from_dict({"detector": {}})
        with pytest.raises(SpecError, match="schema"):
            DetectorSpec.from_dict({"schema": "repro.spec/v999"})

    def test_unknown_top_level_keys_rejected(self):
        with pytest.raises(SpecError, match=r"unknown spec keys \['pipeline'\]"):
            DetectorSpec.from_dict({"schema": SPEC_SCHEMA, "pipeline": []})

    def test_unknown_detector_field_lists_valid_keys(self):
        with pytest.raises(SpecError, match="valid keys.*embedding_dim"):
            DetectorSpec.from_dict(
                {"schema": SPEC_SCHEMA, "detector": {"epoch": 9}}
            )

    @pytest.mark.parametrize("key", _RETIRED_CONFIG_FIELDS)
    def test_retired_key_is_an_unknown_key(self, key):
        """Saves drop retired options on load; a spec that sets one is
        rejected like any unknown ``[detector]`` key."""
        with pytest.raises(SpecError, match=f"{key}.*valid keys"):
            DetectorSpec.from_dict({"schema": SPEC_SCHEMA, "detector": {key: 1}})

    def test_out_of_range_detector_field_is_actionable(self):
        with pytest.raises(SpecError, match="epochs must be a positive integer"):
            DetectorSpec.from_dict(
                {"schema": SPEC_SCHEMA, "detector": {"epochs": -3}}
            )

    @pytest.mark.parametrize("key", ["calibrate", "policy_override", "exclude_models"])
    def test_retired_component_twin_is_refused_in_one_line(self, tmp_path, key):
        """The config's retired twins of the ``calibrator``, ``policy`` and
        ``featurizers`` components are unknown ``[detector]`` keys in a spec
        file."""
        path = tmp_path / "spec.toml"
        path.write_text(f'schema = "{SPEC_SCHEMA}"\n[detector]\n{key} = false\n')
        with pytest.raises(SpecError) as excinfo:
            DetectorSpec.from_file(path)
        message = str(excinfo.value)
        assert "\n" not in message
        assert key in message and "valid keys: ['alpha', 'augment'" in message

    def test_unknown_featurizer_rejected_eagerly(self):
        with pytest.raises(SpecError, match="unknown featurizer 'nope'"):
            DetectorSpec.from_dict(
                {"schema": SPEC_SCHEMA, "featurizers": ["nope"]}
            )

    def test_bad_featurizer_params_rejected_eagerly(self):
        with pytest.raises(SpecError, match="unknown parameters"):
            DetectorSpec.from_dict(
                {
                    "schema": SPEC_SCHEMA,
                    "featurizers": [{"name": "char_embedding", "width": 9}],
                }
            )

    def test_duplicate_featurizers_rejected(self):
        with pytest.raises(SpecError, match="duplicate featurizer names"):
            DetectorSpec.from_dict(
                {"schema": SPEC_SCHEMA, "featurizers": ["column_id", "column_id"]}
            )

    def test_empty_featurizer_list_rejected(self):
        with pytest.raises(SpecError, match="non-empty"):
            DetectorSpec.from_dict({"schema": SPEC_SCHEMA, "featurizers": []})

    def test_unknown_policy_and_calibrator_rejected(self):
        with pytest.raises(SpecError, match="unknown policy"):
            DetectorSpec.from_dict({"schema": SPEC_SCHEMA, "policy": "nope"})
        with pytest.raises(SpecError, match="unknown calibrator"):
            DetectorSpec.from_dict({"schema": SPEC_SCHEMA, "calibrator": "nope"})

    def test_from_file_toml_and_json(self, tmp_path):
        toml_path = tmp_path / "spec.toml"
        toml_path.write_text(
            'schema = "repro.spec/v1"\ncalibrator = "none"\n'
            "[detector]\nepochs = 7\n"
        )
        json_path = tmp_path / "spec.json"
        json_path.write_text(
            json.dumps(
                {"schema": SPEC_SCHEMA, "detector": {"epochs": 7}, "calibrator": "none"}
            )
        )
        from_toml = DetectorSpec.from_file(toml_path)
        from_json = DetectorSpec.from_file(json_path)
        assert from_toml == from_json
        assert from_toml.fingerprint() == from_json.fingerprint()

    def test_from_file_errors(self, tmp_path):
        with pytest.raises(SpecError, match="not found"):
            DetectorSpec.from_file(tmp_path / "missing.toml")
        bad = tmp_path / "bad.yaml"
        bad.write_text("x")
        with pytest.raises(SpecError, match="unsupported spec format"):
            DetectorSpec.from_file(bad)
        invalid = tmp_path / "broken.toml"
        invalid.write_text("schema = [unclosed")
        with pytest.raises(SpecError, match="invalid TOML"):
            DetectorSpec.from_file(invalid)

    def test_example_spec_is_valid(self):
        spec = DetectorSpec.from_file("examples/detector_default.toml")
        assert spec.featurizers is None
        assert spec.policy == ("learned", ())

    def test_load_spec_coerces_all_source_shapes(self, tmp_path):
        spec = DetectorSpec.default(epochs=3)
        assert load_spec(spec) is spec
        assert load_spec(spec.to_dict()) == spec
        path = tmp_path / "s.json"
        spec.to_file(path)
        assert load_spec(path) == spec


# --------------------------------------------------------------------- #
# Fingerprints
# --------------------------------------------------------------------- #


_detector_tables = st.fixed_dictionaries(
    {},
    optional={
        "epochs": st.integers(1, 50),
        "embedding_dim": st.integers(1, 32),
        "seed": st.integers(0, 2**31 - 1),
        "dropout": st.sampled_from([0.0, 0.1, 0.5]),
        "augment": st.booleans(),
    },
)

_featurizer_lists = st.one_of(
    st.none(),
    st.lists(
        st.sampled_from(
            [
                "column_id",
                "empirical_dist",
                {"name": "char_embedding", "dim": 4},
                {"name": "format_3gram", "least_k": 2},
                "value_length",
            ]
        ),
        min_size=1,
        max_size=4,
        unique_by=lambda e: e if isinstance(e, str) else e["name"],
    ),
)


@st.composite
def _spec_payloads(draw):
    payload = {
        "schema": SPEC_SCHEMA,
        "detector": draw(_detector_tables),
        "policy": draw(st.sampled_from(["learned", "uniform"])),
        "calibrator": draw(st.sampled_from(["platt", "none"])),
    }
    featurizers = draw(_featurizer_lists)
    if featurizers is not None:
        payload["featurizers"] = featurizers
    return payload


def _reorder(payload: dict, order: list[int]) -> dict:
    keys = list(payload)
    if not keys:
        return {}
    permuted = [keys[i % len(keys)] for i in order] + keys
    out = {}
    for key in permuted:
        if key not in out:
            out[key] = payload[key]
    return out


class TestFingerprint:
    @settings(max_examples=40, deadline=None)
    @given(payload=_spec_payloads(), order=st.lists(st.integers(0, 9), max_size=10))
    def test_fingerprint_stable_under_key_reordering(self, payload, order):
        """Insertion order of mapping keys — top-level and [detector] —
        never changes the fingerprint."""
        reordered = _reorder(payload, order)
        reordered["detector"] = _reorder(payload["detector"], order)
        assert (
            DetectorSpec.from_dict(payload).fingerprint()
            == DetectorSpec.from_dict(reordered).fingerprint()
        )

    def test_fingerprint_stable_under_component_shorthand(self):
        bare = DetectorSpec.from_dict({"schema": SPEC_SCHEMA, "policy": "learned"})
        table = DetectorSpec.from_dict(
            {"schema": SPEC_SCHEMA, "policy": {"name": "learned"}}
        )
        assert bare.fingerprint() == table.fingerprint()

    def test_fingerprint_distinguishes_real_changes(self):
        a = DetectorSpec.default()
        b = DetectorSpec.default(epochs=41)
        c = DetectorSpec.from_dict({"schema": SPEC_SCHEMA, "calibrator": "none"})
        assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3

    def test_fingerprint_is_sha256_hex(self):
        fingerprint = DetectorSpec.default().fingerprint()
        assert len(fingerprint) == 64 and int(fingerprint, 16) >= 0


# --------------------------------------------------------------------- #
# Build → fit → save → load round-trip
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def small_bundle():
    bundle = repro.load_dataset("hospital", num_rows=60, seed=1)
    split = make_split(bundle, 0.2, rng=0)
    return bundle, split


FAST = {"epochs": 5, "embedding_dim": 6, "seed": 0}


def _fit_and_predict(detector, bundle, split):
    detector.fit(bundle.dirty, split.training, bundle.constraints)
    return detector.predict(split.test_cells)


class TestSpecRoundTrip:
    def test_spec_built_equals_code_built_bit_for_bit(self, small_bundle, tmp_path):
        """The acceptance criterion: spec → build → fit → save → load yields
        bit-identical predictions to the code-built detector."""
        bundle, split = small_bundle
        spec = DetectorSpec.default(**FAST)

        code_built = HoloDetect(DetectorConfig(**FAST))
        code_predictions = _fit_and_predict(code_built, bundle, split)

        spec_built = repro.build(spec)
        assert spec_built.spec is spec or spec_built.spec == spec
        spec_predictions = _fit_and_predict(spec_built, bundle, split)
        np.testing.assert_array_equal(
            spec_predictions.probabilities, code_predictions.probabilities
        )

        save_detector(spec_built, tmp_path / "model")
        loaded = load_detector(tmp_path / "model", bundle.dirty)
        assert loaded.spec is not None
        assert loaded.spec.fingerprint() == spec.fingerprint()
        loaded_predictions = loaded.predict(split.test_cells)
        np.testing.assert_array_equal(
            loaded_predictions.probabilities, code_predictions.probabilities
        )
        # The sidecar carries the fingerprint for humans and tooling.
        sidecar = json.loads((tmp_path / "model" / "spec.json").read_text())
        assert sidecar["fingerprint"] == spec.fingerprint()

    def test_explicit_default_featurizer_list_is_equivalent(self, small_bundle):
        """Spelling the Table 7 pipeline out explicitly builds the same
        detector as omitting `featurizers`."""
        bundle, split = small_bundle
        explicit = DetectorSpec.from_dict(
            {
                "schema": SPEC_SCHEMA,
                "detector": dict(FAST),
                "featurizers": list(DEFAULT_MODEL_ORDER) + ["constraint_violations"],
            }
        )
        implicit_predictions = _fit_and_predict(
            DetectorSpec.default(**FAST).build(), bundle, split
        )
        explicit_predictions = _fit_and_predict(explicit.build(), bundle, split)
        np.testing.assert_array_equal(
            explicit_predictions.probabilities, implicit_predictions.probabilities
        )

    def test_custom_featurizer_spec_fits_and_predicts(self, small_bundle):
        bundle, split = small_bundle
        spec = DetectorSpec.from_dict(
            {
                "schema": SPEC_SCHEMA,
                "detector": dict(FAST),
                "featurizers": [
                    "empirical_dist",
                    "format_3gram",
                    {"name": "char_embedding", "dim": 4},
                    {"name": "custom_components:ConstantFeaturizer", "value": 0.25},
                ],
            }
        )
        detector = spec.build()
        predictions = _fit_and_predict(detector, bundle, split)
        assert len(predictions.cells) == len(split.test_cells)
        assert detector.pipeline.model_names[-1] == "constant"
        metrics = evaluate_predictions(
            predictions.error_cells, bundle.error_cells, split.test_cells
        )
        assert 0.0 <= metrics.f1 <= 1.0

    def test_custom_featurizer_has_no_persistence_handler(
        self, small_bundle, tmp_path
    ):
        bundle, split = small_bundle
        spec = DetectorSpec.from_dict(
            {
                "schema": SPEC_SCHEMA,
                "detector": dict(FAST),
                "featurizers": [
                    "empirical_dist",
                    {"name": "custom_components:ConstantFeaturizer", "value": 1.0},
                ],
            }
        )
        detector = spec.build()
        _fit_and_predict(detector, bundle, split)
        with pytest.raises(TypeError, match="no persistence handler"):
            save_detector(detector, tmp_path / "model")

    def test_policy_and_calibrator_components_take_effect(self, small_bundle):
        bundle, split = small_bundle
        spec = DetectorSpec.from_dict(
            {
                "schema": SPEC_SCHEMA,
                "detector": dict(FAST),
                "policy": {"name": "random-channel", "seed": 7},
                "calibrator": "none",
            }
        )
        detector = spec.build()
        _fit_and_predict(detector, bundle, split)
        from repro.baselines.augmentation_variants import RandomChannelPolicy

        assert isinstance(detector.policy, RandomChannelPolicy)
        # The "none" calibrator is the identity sigmoid.
        assert detector.scaler.a == 1.0 and detector.scaler.b == 0.0


# --------------------------------------------------------------------- #
# Every detector is its spec
# --------------------------------------------------------------------- #


#: A non-default value of every DetectorConfig field a spec records.
NON_DEFAULT = {
    "embedding_dim": 8, "embedding_epochs": 1, "hidden_dim": 16, "dropout": 0.0,
    "epochs": 7, "batch_size": 16, "lr": 3e-3, "weight_decay": 0.0,
    "min_training_steps": 50, "holdout_fraction": 0.2, "alpha": 0.5,
    "target_ratio": 1.5, "augment": False, "min_error_pairs": 3,
    "weak_supervision_max_cells": 500, "prediction_batch": 64, "seed": 4,
}


class TestDerivedSpec:
    def test_every_recorded_field_is_covered(self):
        import dataclasses

        fields = {f.name for f in dataclasses.fields(DetectorConfig)}
        assert set(NON_DEFAULT) == fields - {"artifact_dir"}

    @pytest.mark.parametrize("field", sorted(NON_DEFAULT))
    def test_config_round_trips_through_its_spec(self, field):
        config = DetectorConfig(**{field: NON_DEFAULT[field]})
        spec = HoloDetect(config).spec
        assert HoloDetect.from_spec(spec).config == config
        assert spec.fingerprint() == (
            DetectorSpec.default(**{field: NON_DEFAULT[field]}).fingerprint()
        )

    def test_all_fields_at_once_and_defaults_left_out(self, tmp_path):
        config = DetectorConfig(**NON_DEFAULT, artifact_dir=str(tmp_path))
        spec = HoloDetect(config).spec
        assert spec == DetectorSpec.default(**NON_DEFAULT)
        assert HoloDetect(DetectorConfig()).spec == DetectorSpec.default()
        # A spelled-out default is kept, so it fingerprints differently.
        assert DetectorSpec.default(seed=0).fingerprint() != (
            HoloDetect(DetectorConfig(seed=0)).spec.fingerprint()
        )

    def test_uniform_policy_keeps_the_learned_transformations(self, small_bundle):
        """``policy = "uniform"`` learns Φ as a plain AUG fit does, from T
        minus the holdout, and drops only Π̂."""
        from dataclasses import replace

        from repro.augmentation.policy import UniformPolicy

        bundle, split = small_bundle
        aug = HoloDetect(DetectorConfig(**FAST))
        aug.fit(bundle.dirty, split.training, bundle.constraints)
        uniform = HoloDetect.from_spec(replace(aug.spec, policy=("uniform", {})))
        uniform.fit(bundle.dirty, split.training, bundle.constraints)
        assert isinstance(uniform.policy, UniformPolicy)
        assert uniform.policy.transformations == aug.policy.transformations

    def test_none_calibrator_is_the_identity_on_the_same_model(self, small_bundle):
        """``calibrator = "none"`` fits the model a Platt-calibrated fit
        does and scores it through the identity ``a = 1, b = 0`` (what the
        retired ``calibrate=False`` left)."""
        from dataclasses import replace

        bundle, split = small_bundle
        platt = HoloDetect(DetectorConfig(**FAST))
        platt.fit(bundle.dirty, split.training, bundle.constraints)
        none = HoloDetect.from_spec(replace(platt.spec, calibrator=("none", {})))
        none.fit(bundle.dirty, split.training, bundle.constraints)
        assert (none.scaler.a, none.scaler.b) == (1.0, 0.0)
        assert (platt.scaler.a, platt.scaler.b) != (1.0, 0.0)
        platt.scaler.a, platt.scaler.b = 1.0, 0.0
        cells = split.test_cells
        assert none.predict(cells).probabilities.tobytes() == (
            platt.predict(cells).probabilities.tobytes()
        )


# --------------------------------------------------------------------- #
# DetectorConfig eager validation (satellite)
# --------------------------------------------------------------------- #


class TestDetectorConfigValidation:
    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("epochs", 0, "epochs must be a positive integer"),
            ("epochs", -5, "epochs must be a positive integer"),
            ("embedding_dim", 0, "embedding_dim must be a positive integer"),
            ("embedding_epochs", 0, "embedding_epochs must be a positive integer"),
            ("hidden_dim", -1, "hidden_dim must be a positive integer"),
            ("batch_size", 0, "batch_size must be a positive integer"),
            ("prediction_batch", 0, "prediction_batch must be a positive integer"),
            ("dropout", 1.0, r"dropout must be in \[0, 1\)"),
            ("dropout", -0.1, r"dropout must be in \[0, 1\)"),
            ("holdout_fraction", 1.5, r"holdout_fraction must be in \[0, 1\)"),
            ("lr", 0.0, "lr must be positive"),
            ("lr", -1e-3, "lr must be positive"),
            ("weight_decay", -1e-5, "weight_decay must be non-negative"),
            ("min_training_steps", -1, "min_training_steps must be a non-negative"),
            ("alpha", 0.0, r"alpha must be in \(0, 1\]"),
            ("alpha", 2.0, r"alpha must be in \(0, 1\], got 2.0"),
            ("target_ratio", -2.0, "target_ratio must be positive and finite, or None"),
            ("target_ratio", float("inf"), "target_ratio must be positive and finite"),
            ("lr", float("inf"), "lr must be positive and finite, got inf"),
            ("lr", float("nan"), "lr must be positive and finite, got nan"),
            ("weight_decay", float("inf"), "weight_decay must be non-negative and finite"),
            ("lr", True, "lr must be positive and finite, got True"),
            ("holdout_fraction", False, r"holdout_fraction must be in \[0, 1\), got False"),
            ("alpha", True, r"alpha must be in \(0, 1\], got True"),
            ("augment", "false", "augment must be true or false, got 'false'"),
            ("augment", 0, "augment must be true or false, got 0"),
            ("min_error_pairs", -1, "min_error_pairs must be a non-negative"),
            ("weak_supervision_max_cells", 0, "weak_supervision_max_cells"),
            ("seed", -1, "seed must be a non-negative integer"),
            ("artifact_dir", 3, "artifact_dir must be a path string or None, got 3"),
        ],
    )
    def test_bad_values_fail_fast_with_field_name(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            DetectorConfig(**{field: value})

    def test_good_config_passes(self):
        DetectorConfig(epochs=1, dropout=0.0, holdout_fraction=0.0, target_ratio=1.0)

    def test_replace_revalidates(self):
        from dataclasses import replace

        with pytest.raises(ValueError, match="seed"):
            replace(DetectorConfig(), seed=-3)


class TestSpecImmutability:
    def test_specs_are_hashable_and_usable_as_keys(self):
        a = DetectorSpec.default(epochs=5)
        b = DetectorSpec.default(epochs=5)
        c = DetectorSpec.default(epochs=6)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, c}) == 2

    def test_field_mappings_are_frozen(self):
        spec = DetectorSpec.from_dict(
            {
                "schema": SPEC_SCHEMA,
                "detector": {"epochs": 5},
                "featurizers": [{"name": "char_embedding", "dim": 4}],
            }
        )
        with pytest.raises(TypeError):
            spec.detector["epochs"] = 99  # type: ignore[index]
        with pytest.raises(TypeError):
            spec.featurizers[0][1]["dim"] = 2  # type: ignore[index]
        # The frozen pair form reads back as a plain mapping.
        assert dict(spec.detector) == {"epochs": 5}
        assert dict(spec.featurizers[0][1]) == {"dim": 4}

    def test_from_spec_validates_directly_constructed_specs(self):
        with pytest.raises(SpecError, match="unknown featurizer 'nope'"):
            HoloDetect.from_spec(DetectorSpec(featurizers=(("nope", {}),)))
        with pytest.raises(SpecError, match="unknown calibrator"):
            HoloDetect.from_spec(DetectorSpec(calibrator=("nope", {})))


# --------------------------------------------------------------------- #
# One spec-file layer: integer checks, pinned fingerprints
# --------------------------------------------------------------------- #


def _matrix(**overrides):
    from repro.evaluation.matrix import ScenarioMatrix

    payload = {"datasets": ["hospital"], "label_budgets": [0.1], "methods": ["cv"]}
    payload.update(overrides)
    return ScenarioMatrix.from_dict(payload)


def _configs():
    from repro.baselines.augmentation_variants import RandomChannelConfig
    from repro.core.calibration import PlattCalibratorConfig
    from repro.data.registry import DatasetParams
    from repro.features.pipeline import EmbeddingModelConfig, NGramModelConfig

    return {
        "embedding-dim": lambda v: EmbeddingModelConfig(dim=v),
        "embedding-epochs": lambda v: EmbeddingModelConfig(epochs=v),
        "ngram-n": lambda v: NGramModelConfig(n=v),
        "ngram-least_k": lambda v: NGramModelConfig(least_k=v),
        "platt-epochs": lambda v: PlattCalibratorConfig(epochs=v),
        "random-channel-seed": lambda v: RandomChannelConfig(seed=v),
        "dataset-num_rows": lambda v: DatasetParams(num_rows=v),
        "dataset-seed": lambda v: DatasetParams(seed=v),
        "matrix-rows": lambda v: _matrix(datasets=[{"name": "hospital", "rows": v}]),
        "matrix-trials": lambda v: _matrix(trials=v),
        "matrix-seed": lambda v: _matrix(seed=v),
        "detector-min_training_steps": lambda v: DetectorConfig(min_training_steps=v),
        "detector-min_error_pairs": lambda v: DetectorConfig(min_error_pairs=v),
        "detector-weak_supervision_max_cells": (
            lambda v: DetectorConfig(weak_supervision_max_cells=v)
        ),
        "spec-featurizer-dim": lambda v: DetectorSpec.from_dict(
            {"schema": SPEC_SCHEMA, "featurizers": [{"name": "char_embedding", "dim": v}]}
        ),
    }


@pytest.mark.parametrize("name", sorted(_configs()))
def test_true_is_never_an_integer(name):
    """A TOML/JSON ``true`` is rejected wherever a count is expected, while
    the integer 1 is accepted."""
    build = _configs()[name]
    build(1)
    with pytest.raises(ValueError, match=r"integer, got True"):
        build(True)


def test_fingerprints_and_artifact_keys_are_pinned():
    """Canonical JSON is shared by specs, scenarios and artifact keys; the
    digests of a warmed store must never move."""
    from pathlib import Path

    from repro.artifacts.keys import artifact_key
    from repro.evaluation.matrix import ScenarioMatrix

    examples = Path(__file__).resolve().parent.parent / "examples"
    assert DetectorSpec.default().fingerprint() == (
        "179129f3178af1b1dd1aa73745221ff4703a331fcee6243b21cc98da5a7833bc"
    )
    assert DetectorSpec.from_file(examples / "detector_default.toml").fingerprint() == (
        "b71140c747e28ba3c271ef9e569ff09adf5fd8d5cb1c9314b16df5ddb3e17594"
    )
    scenario = ScenarioMatrix.from_file(examples / "sweep_smoke.toml").expand()[0]
    assert scenario.fingerprint() == (
        "ead34726946e4b011f22a39caccd3aafc549fa65b084c463bc2956b75ac3c31f"
    )
    assert scenario.trials_seed == 589659271167062262
    assert artifact_key(
        "embedding/char", "abc", {"dim": 16, "epochs": 2, "b": [1, 2]}, seed=7
    ) == "bcc5db3f35423aa5a8b5e6f2e5b9806e58ed9e89ea802f9e997611550f7822de"
