"""Uniform method adapters: name → ``MethodFn`` for the sweep harness.

Every detector in the library — the HoloDetect model, its ablations, and
the §6.1 baselines — is wrapped here behind one calling convention, the
``MethodFn`` shape the experiment runner consumes::

    method(bundle, split, rng) -> set[Cell]      # predicted error cells

:func:`build_method` resolves a method *name* plus a parameter mapping into
such a callable, so sweep specs (and the benchmark harness) can refer to
methods declaratively.  Stochastic methods draw their model seed from the
per-trial ``rng`` stream, which keeps a sweep reproducible end-to-end from
a single seed while still varying the seed across trials.

Every method is a registered ``method`` component in :mod:`repro.registry`;
:func:`build_method` is a thin resolver over it, which also means sweep
specs accept user-defined methods as ``"module:attr"`` references (the
attribute is called with the parameter mapping's entries as keyword
arguments and must return a ``MethodFn``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import replace
from typing import Callable, Mapping

from repro.baselines.active_learning import ActiveLearningDetector, GroundTruthOracle
from repro.baselines.constraint_violations import ConstraintViolationDetector
from repro.baselines.forbidden_itemsets import ForbiddenItemsetDetector
from repro.baselines.holoclean import HoloCleanDetector
from repro.baselines.logistic_regression import LogisticRegressionDetector
from repro.baselines.outlier import OutlierDetector
from repro.baselines.resampling import ResamplingDetector
from repro.baselines.semi_supervised import SemiSupervisedDetector
from repro.core.detector import DetectorConfig, HoloDetect
from repro.registry import REGISTRY, ComponentError

#: A method under evaluation (same shape as ``repro.evaluation.runner.MethodFn``).
MethodFn = Callable[..., set]

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(DetectorConfig)}


def _trial_seed(rng) -> int:
    """The per-trial model seed, drawn from the trial's RNG stream."""
    return int(rng.integers(0, 2**31))


def detector_config(params: Mapping[str, object]) -> DetectorConfig:
    """Build a :class:`DetectorConfig` from a sweep-spec parameter mapping.

    Unknown keys raise so typos in spec files fail loudly instead of being
    silently ignored.  (Ablation overrides like SuperL's ``augment=False``
    live in the method registrations and detector wrappers, not here.)
    """
    unknown = set(params) - _CONFIG_FIELDS
    if unknown:
        raise ValueError(
            f"unknown detector parameters {sorted(unknown)}; "
            f"valid keys: {sorted(_CONFIG_FIELDS)}"
        )
    return DetectorConfig(**params)  # type: ignore[arg-type]


def _semil(params: Mapping[str, object]) -> MethodFn:
    params = dict(params)
    rounds = int(params.pop("rounds", 1))
    pool = int(params.pop("unlabeled_pool_size", 1000))
    config = detector_config(params)

    def run(bundle, split, rng):
        det = SemiSupervisedDetector(
            replace(config, seed=_trial_seed(rng)),
            rounds=rounds,
            unlabeled_pool_size=pool,
        )
        det.fit(bundle.dirty, split.training, bundle.constraints)
        return det.predict_error_cells(split.test_cells)

    return run


def _activel(params: Mapping[str, object]) -> MethodFn:
    params = dict(params)
    loops = int(params.pop("loops", 3))
    labels_per_loop = int(params.pop("labels_per_loop", 50))
    config = detector_config(params)

    def run(bundle, split, rng):
        det = ActiveLearningDetector(
            GroundTruthOracle(bundle),
            split.sampling_cells,
            loops=loops,
            labels_per_loop=labels_per_loop,
            config=replace(config, seed=_trial_seed(rng)),
        )
        det.fit(bundle.dirty, split.training, bundle.constraints)
        return det.predict_error_cells(split.test_cells)

    return run


def _lr(params: Mapping[str, object]) -> MethodFn:
    if params:
        raise ValueError(f"takes no parameters, got {sorted(params)}")

    def run(bundle, split, rng):
        det = LogisticRegressionDetector(seed=_trial_seed(rng))
        det.fit(bundle.dirty, split.training, bundle.constraints)
        return det.predict_error_cells(split.test_cells)

    return run


def _configured(detector_cls, **fixed: object):
    """A method whose params are ``DetectorConfig`` fields and whose
    detector takes just that config, seeded per trial; ``fixed`` fields
    override the params (SuperL's ``augment=False``)."""

    def build(params: Mapping[str, object]) -> MethodFn:
        config = detector_config(params)

        def run(bundle, split, rng):
            det = detector_cls(replace(config, seed=_trial_seed(rng), **fixed))
            det.fit(bundle.dirty, split.training, bundle.constraints)
            return det.predict_error_cells(split.test_cells)

        return run

    return build


def _unsupervised(detector_cls, needs_constraints: bool):
    def build(params: Mapping[str, object]) -> MethodFn:
        if params:
            raise ValueError(f"takes no parameters, got {sorted(params)}")

        def run(bundle, split, rng):
            det = detector_cls()
            if needs_constraints:
                det.fit(bundle.dirty, constraints=bundle.constraints)
            else:
                det.fit(bundle.dirty)
            return det.predict_error_cells(split.test_cells)

        return run

    return build


#: Registered built-in methods, in registration order.  "aug" is the
#: paper's name for the full HoloDetect model (augmentation on).
_METHOD_REGISTRATIONS: tuple[tuple[str, Callable[[Mapping[str, object]], MethodFn], str], ...] = (
    ("holodetect", _configured(HoloDetect),
     "the full AUG model: learned channel + augmentation"),
    ("aug", _configured(HoloDetect), "alias of 'holodetect' (the paper's Table 2 name)"),
    ("superl", _configured(HoloDetect, augment=False),
     "HoloDetect trained on T only (no augmentation)"),
    ("semil", _semil, "self-training semi-supervised variant"),
    ("activel", _activel, "uncertainty-sampling active learning variant"),
    ("resampling", _configured(ResamplingDetector),
     "minority-class oversampling instead of augmentation"),
    ("lr", _lr, "logistic regression over co-occurrence + violation features"),
    ("cv", _unsupervised(ConstraintViolationDetector, needs_constraints=True),
     "flag all cells in denial-constraint violations"),
    ("hc", _unsupervised(HoloCleanDetector, needs_constraints=True),
     "HoloClean-style repair engine"),
    ("od", _unsupervised(OutlierDetector, needs_constraints=False),
     "correlation-based outlier detection"),
    ("fbi", _unsupervised(ForbiddenItemsetDetector, needs_constraints=False),
     "forbidden itemsets via the lift measure"),
)

for _name, _builder, _doc in _METHOD_REGISTRATIONS:
    REGISTRY.add("method", _name, _builder, description=_doc)


def method_names() -> tuple[str, ...]:
    """Names accepted by :func:`build_method` (spec-file vocabulary)."""
    return REGISTRY.names("method")


def build_method(name: str, params: Mapping[str, object] | None = None) -> MethodFn:
    """Resolve a method name + parameter mapping into a ``MethodFn``.

    ``name`` is a registered method key or a ``"module:attr"`` reference to
    a user-defined method factory (called as ``attr(**params)``).
    """
    try:
        method = REGISTRY.create("method", name, dict(params or {}))
    except ComponentError as exc:
        raise ValueError(str(exc)) from exc
    if not callable(method):
        raise ValueError(
            f"method {name!r} built {type(method).__name__}, expected a "
            "callable MethodFn(bundle, split, rng) -> set[Cell]"
        )
    return method
