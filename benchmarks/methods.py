"""Method registry shared by the Table 2 / Table 5 benchmarks.

Thin wrappers over :mod:`repro.baselines.adapters` — the library's uniform
method registry — kept here so benchmark modules can keep passing a
prepared :class:`DetectorConfig` instead of a parameter mapping.  Each
wrapper returns the ``MethodFn`` shape the experiment runner consumes.
:func:`multi_edit` is the design-choice ablation's policy component, named
in its spec as ``"methods:multi_edit"``.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.augmentation.policy import CompositePolicy
from repro.baselines.adapters import build_method
from repro.core import DetectorConfig


def aug_method(config: DetectorConfig):
    return build_method("holodetect", asdict(config))


def cv_method():
    return build_method("cv")


def hc_method():
    return build_method("hc")


def od_method():
    return build_method("od")


def fbi_method():
    return build_method("fbi")


def lr_method():
    return build_method("lr")


def superl_method(config: DetectorConfig):
    return build_method("superl", asdict(config))


def semil_method(config: DetectorConfig, rounds: int = 1):
    return build_method(
        "semil", {**asdict(config), "rounds": rounds, "unlabeled_pool_size": 1000}
    )


def activel_method(config: DetectorConfig, loops: int):
    return build_method(
        "activel", {**asdict(config), "loops": loops, "labels_per_loop": 50}
    )


def multi_edit():
    """Policy component (``"methods:multi_edit"``): the learned channel,
    composed up to three edits deep."""
    return lambda learned: CompositePolicy(learned, max_edits=3, continue_probability=0.3)
