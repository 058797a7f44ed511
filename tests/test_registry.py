"""Tests for the unified component registry (``repro.registry``)."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from repro.baselines.adapters import build_method, method_names
from repro.data.registry import DATASET_NAMES, load_dataset
from repro.errors.bart import ErrorProfile
from repro.errors.profiles import profile_names, resolve_profile
from repro.features.pipeline import (
    DEFAULT_MODEL_ORDER,
    FeaturizerContext,
    build_featurizer,
    build_pipeline,
    default_pipeline,
)
from repro.registry import (
    REGISTRY,
    ComponentError,
    Registry,
    make_config,
)

#: All 11 baseline-method keys of the paper's evaluation (§6.1 + ablations).
ALL_METHODS = (
    "holodetect", "aug", "superl", "semil", "activel", "resampling",
    "lr", "cv", "hc", "od", "fbi",
)


class TestRegistryCore:
    def test_kinds_cover_every_component_family(self):
        assert set(REGISTRY.kinds()) >= {
            "featurizer", "method", "error_profile", "dataset",
            "policy", "calibrator",
        }

    def test_duplicate_registration_rejected(self):
        registry = Registry()
        registry.add("kind", "key", lambda params: None)
        with pytest.raises(ComponentError, match="duplicate registration"):
            registry.add("kind", "key", lambda params: None)

    def test_star_import_of_errors_is_warning_free(self):
        # Regression: a deprecated name in repro.errors.__all__ made every
        # star import emit a DeprecationWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exec("from repro.errors import *", {})

    def test_registered_keys_may_not_contain_colon(self):
        registry = Registry()
        with pytest.raises(ComponentError, match="reserved"):
            registry.register("kind", "a:b")(lambda params: None)

    def test_unknown_key_lists_choices(self):
        with pytest.raises(ComponentError, match="choose from.*platt"):
            REGISTRY.entry("calibrator", "nope")

    def test_describe_carries_descriptions(self):
        rows = REGISTRY.describe("method")
        assert {r["key"] for r in rows} == set(ALL_METHODS)
        assert all(r["description"] for r in rows)

    def test_make_config_rejects_unknown_keys(self):
        @dataclass
        class Cfg:
            x: int = 1

        with pytest.raises(ComponentError, match=r"unknown parameters \['y'\].*valid keys: \['x'\]"):
            make_config(Cfg, {"y": 2}, "kind 'k'")

    def test_make_config_reraises_post_init_errors_with_context(self):
        @dataclass
        class Cfg:
            x: int = 1

            def __post_init__(self):
                if self.x < 0:
                    raise ValueError("x must be non-negative")

        with pytest.raises(ComponentError, match="kind 'k': x must be non-negative"):
            make_config(Cfg, {"x": -1}, "kind 'k'")


class TestMethodResolution:
    def test_all_eleven_methods_resolve(self):
        assert set(method_names()) == set(ALL_METHODS)
        for name in ALL_METHODS:
            assert callable(build_method(name))

    def test_unknown_method_is_actionable(self):
        with pytest.raises(ValueError, match="unknown method 'nope'; choose from"):
            build_method("nope")

    def test_bad_params_name_the_method(self):
        with pytest.raises(ValueError, match="method 'lr'"):
            build_method("lr", {"epochs": 3})

    @pytest.mark.parametrize("key", ["calibrate", "exclude_models"])
    def test_retired_component_twin_is_an_unknown_param(self, key):
        """The calibrator and featurizers are spec components; a sweep
        method setting the config's retired twin is refused in one line."""
        with pytest.raises(ValueError) as excinfo:
            build_method("holodetect", {key: ["neighborhood"]})
        message = str(excinfo.value)
        assert "\n" not in message
        assert f"unknown detector parameters ['{key}']; valid keys: ['alpha'" in message

    def test_module_attr_method_reference(self):
        method = build_method("custom_components:flag_nothing_method")
        assert method(None, None, None) == set()


class TestFeaturizerResolution:
    def test_every_builtin_featurizer_resolves(self):
        ctx = FeaturizerContext(embedding_dim=4, embedding_epochs=1)
        for name in DEFAULT_MODEL_ORDER + (
            "constraint_violations", "value_length", "token_frequency",
        ):
            featurizer = build_featurizer(name, {}, ctx)
            assert featurizer.name == name

    def test_embedding_params_inherit_context_defaults(self):
        ctx = FeaturizerContext(embedding_dim=4, embedding_epochs=1)
        assert build_featurizer("char_embedding", {}, ctx).dim == 4
        assert build_featurizer("char_embedding", {"dim": 7}, ctx).dim == 7

    def test_unknown_param_is_actionable(self):
        with pytest.raises(ComponentError, match="unknown parameters \\['width'\\]"):
            build_featurizer("char_embedding", {"width": 9})

    def test_no_param_featurizers_reject_params(self):
        with pytest.raises(ComponentError, match="takes no parameters"):
            build_featurizer("column_id", {"dim": 2})

    def test_module_attr_featurizer_class(self, zip_dataset):
        featurizer = build_featurizer(
            "custom_components:ConstantFeaturizer", {"value": 3.0}
        )
        featurizer.fit(zip_dataset)
        from repro.features.base import CellBatch

        out = featurizer.transform_batch(
            CellBatch(list(zip_dataset.cells())[:4], zip_dataset)
        )
        assert out.shape == (4, 1) and np.all(out == 3.0)

    def test_module_attr_prebuilt_instance(self):
        featurizer = build_featurizer("custom_components:PREBUILT_FEATURIZER")
        assert featurizer.value == 2.5
        with pytest.raises(ComponentError, match="takes no parameters"):
            build_featurizer("custom_components:PREBUILT_FEATURIZER", {"value": 1})

    def test_module_attr_non_featurizer_rejected(self):
        with pytest.raises(ComponentError, match="lacks the Featurizer interface"):
            build_featurizer("custom_components:NOT_A_FEATURIZER")

    def test_malformed_and_missing_references(self):
        with pytest.raises(ComponentError, match="cannot import module"):
            build_featurizer("no_such_module:X")
        with pytest.raises(ComponentError, match="has no attribute"):
            build_featurizer("custom_components:Nothing")

    def test_custom_featurizer_in_full_pipeline(self, zip_dataset):
        ctx = FeaturizerContext(embedding_dim=4, embedding_epochs=1)
        pipeline = build_pipeline(
            [
                "empirical_dist",
                ("custom_components:ConstantFeaturizer", {"value": 0.5}),
            ],
            ctx,
        )
        pipeline.fit(zip_dataset)
        cells = list(zip_dataset.cells())[:6]
        features = pipeline.transform(cells, zip_dataset)
        assert features.numeric.shape == (6, 2)

    def test_default_pipeline_unchanged_by_registry_refactor(self, zip_fd):
        pipe = default_pipeline([zip_fd], embedding_dim=4)
        assert pipe.model_names == [*DEFAULT_MODEL_ORDER, "constraint_violations"]


class TestProfileResolution:
    def test_builtin_profiles_resolve(self):
        assert set(profile_names()) == {"native", "typos", "x-typos", "bart-mix", "swaps"}
        assert resolve_profile("native") is None
        assert resolve_profile("typos").typo_fraction == 1.0

    def test_preset_overrides(self):
        profile = resolve_profile("bart-mix", error_rate=0.2)
        assert profile.error_rate == 0.2 and profile.typo_fraction == 0.5

    def test_module_attr_profile(self):
        profile = resolve_profile("custom_components:heavy_typos", error_rate=0.3)
        assert isinstance(profile, ErrorProfile) and profile.error_rate == 0.3

    def test_adhoc_profile_needs_error_rate(self):
        with pytest.raises(ValueError, match="at least error_rate"):
            resolve_profile("mystery")


class TestDatasetResolution:
    def test_builtin_datasets_resolve(self):
        assert set(DATASET_NAMES) == {"hospital", "food", "soccer", "adult", "animal"}
        bundle = load_dataset("hospital", num_rows=30, seed=0)
        assert bundle.dirty.num_rows == 30

    def test_unknown_dataset_is_actionable(self):
        with pytest.raises(ValueError, match="unknown dataset 'nope'; choose from"):
            load_dataset("nope")

    def test_bad_rows_param(self):
        with pytest.raises(ValueError, match="num_rows must be a positive integer"):
            load_dataset("hospital", num_rows=-3)


class TestPolicyAndCalibratorResolution:
    def test_policy_components(self):
        from repro.augmentation.policy import Policy, UniformPolicy

        assert REGISTRY.create("policy", "learned", {}) is None
        wrapper = REGISTRY.create("policy", "uniform", {})
        learned = Policy.learn([("Chicago", "Cxcago")])
        assert isinstance(wrapper(learned), UniformPolicy)
        channel = REGISTRY.create("policy", "random-channel", {"seed": 3})
        assert isinstance(channel, Policy)

    def test_calibrator_components(self):
        from repro.core.calibration import PlattScaler

        platt = REGISTRY.create("calibrator", "platt", {"epochs": 50})
        assert isinstance(platt, PlattScaler) and platt.epochs == 50
        identity = REGISTRY.create("calibrator", "none", {})
        identity.fit(np.array([1.0, -1.0]), np.array([1.0, 0.0]))
        assert identity.a == 1.0 and identity.b == 0.0

    def test_calibrator_param_validation(self):
        with pytest.raises(ComponentError, match="lr must be positive"):
            REGISTRY.create("calibrator", "platt", {"lr": -1})


class TestMatrixThroughRegistry:
    """Sweep specs resolve their axes through the registry, including
    module:attr references."""

    def test_matrix_accepts_module_attr_method_and_profile(self):
        from repro.evaluation.matrix import ScenarioMatrix

        matrix = ScenarioMatrix.from_dict(
            {
                "datasets": [{"name": "hospital", "rows": 40}],
                "error_profiles": [
                    {"name": "custom_components:heavy_typos", "error_rate": 0.25}
                ],
                "label_budgets": [0.2],
                "methods": ["custom_components:flag_nothing_method"],
                "trials": 1,
            }
        )
        specs = matrix.expand()
        assert len(specs) == 1

    def test_matrix_still_rejects_unknown_names(self):
        from repro.evaluation.matrix import MatrixSpecError, ScenarioMatrix

        with pytest.raises(MatrixSpecError, match="unknown dataset"):
            ScenarioMatrix.from_dict(
                {"datasets": ["nope"], "label_budgets": [0.1], "methods": ["lr"]}
            )
        with pytest.raises(MatrixSpecError, match="unknown method"):
            ScenarioMatrix.from_dict(
                {"datasets": ["hospital"], "label_budgets": [0.1], "methods": ["nope"]}
            )

    def test_module_attr_scenario_runs_end_to_end(self):
        from repro.evaluation.matrix import ScenarioSpec, run_scenario

        record = run_scenario(
            ScenarioSpec(
                dataset="hospital",
                rows=40,
                error_profile="custom_components:heavy_typos",
                error_params={"error_rate": 0.25},
                label_budget=0.2,
                method="custom_components:flag_nothing_method",
                trials=1,
            )
        )
        # The do-nothing method has recall 0 by construction.
        assert record["metrics"]["recall"] == 0.0
