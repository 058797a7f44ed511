"""Named error-generation profiles for the scenario matrix.

The benchmark datasets each bake in the noise channel the paper reports for
them (Table 1).  The sweep harness additionally needs to vary the channel
*independently* of the dataset — e.g. run Hospital under a BART-style
typo/swap mix, or Food under pure value swaps — so this module registers a
small library of reusable :class:`~repro.errors.bart.ErrorProfile` presets
as ``error_profile`` components and knows how to re-inject errors into a
bundle's clean relation.

``"native"`` is the identity profile: the bundle keeps the errors its
generator injected.  Every other profile discards the generator's dirty
relation and corrupts the clean relation afresh, which keeps ground truth
exact and makes error characteristics a first-class sweep axis.

Profiles resolve through :mod:`repro.registry`: besides the presets here, a
``"module:attr"`` reference names a user-defined profile (the attribute is
called with the override parameters and must return an
:class:`~repro.errors.bart.ErrorProfile`), and an unknown plain name with at
least ``error_rate`` defines an ad-hoc profile inline.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping

import numpy as np

from repro.data.bundle import DatasetBundle
from repro.errors.bart import ErrorProfile, inject_errors
from repro.registry import REGISTRY, ComponentError

#: Identity profile: keep the bundle's generator-injected errors.
NATIVE = "native"

#: Preset noise channels.  ``None`` marks the identity profile.
_PRESETS: dict[str, tuple[ErrorProfile | None, str]] = {
    NATIVE: (None, "identity: keep the generator-injected errors"),
    "typos": (
        ErrorProfile(error_rate=0.03, typo_fraction=1.0),
        "pure character typos at Hospital-like density",
    ),
    "x-typos": (
        ErrorProfile(error_rate=0.03, typo_fraction=1.0, x_style_typos=True),
        "Hospital's published channel: 'x'-substitution typos",
    ),
    "bart-mix": (
        ErrorProfile(error_rate=0.05, typo_fraction=0.5),
        "the BART mix used for Soccer/Adult: half typos, half swaps",
    ),
    "swaps": (
        ErrorProfile(error_rate=0.05, typo_fraction=0.0),
        "pure cross-tuple value swaps: plausible in isolation",
    ),
}


def _preset_factory(name: str, base: ErrorProfile | None):
    def factory(overrides: Mapping[str, object]) -> ErrorProfile | None:
        overrides = _normalise_overrides(overrides)
        if base is None:
            if overrides:
                raise ComponentError(
                    f"profile {name!r} takes no parameters, got {sorted(overrides)}"
                )
            return None
        try:
            return replace(base, **overrides) if overrides else base
        except (TypeError, ValueError) as exc:
            raise ComponentError(f"profile {name!r}: {exc}") from exc

    return factory


for _name, (_base, _doc) in _PRESETS.items():
    REGISTRY.add("error_profile", _name, _preset_factory(_name, _base), description=_doc)


def _normalise_overrides(overrides: Mapping[str, object]) -> dict[str, object]:
    overrides = dict(overrides)
    if overrides.get("attributes") is not None:
        overrides["attributes"] = tuple(overrides["attributes"])  # type: ignore[arg-type]
    return overrides


def profile_names() -> tuple[str, ...]:
    """Names of the built-in profiles (including ``"native"``)."""
    return REGISTRY.names("error_profile")


def resolve_profile(name: str, **overrides: object) -> ErrorProfile | None:
    """Resolve profile ``name``, optionally overriding its parameters.

    A registered name returns its preset (with ``overrides`` applied via
    :func:`dataclasses.replace`); a ``module:attr`` reference builds a
    user-defined profile; any other name defines an ad-hoc profile and must
    supply at least ``error_rate``.  ``"native"`` accepts no overrides —
    there is no channel to parameterise.
    """
    if ":" in name or name in profile_names():
        profile = REGISTRY.create("error_profile", name, _normalise_overrides(overrides))
        if profile is not None and not isinstance(profile, ErrorProfile):
            raise ComponentError(
                f"profile {name!r} built {type(profile).__name__}, expected ErrorProfile"
            )
        return profile
    overrides = _normalise_overrides(overrides)
    if "error_rate" not in overrides:
        raise ValueError(
            f"unknown profile {name!r}; choose from {profile_names()}, use a "
            "'module:attr' reference, or define a custom profile with at "
            "least error_rate"
        )
    try:
        return ErrorProfile(**overrides)  # type: ignore[arg-type]
    except TypeError as exc:
        raise ValueError(f"profile {name!r}: {exc}") from exc


def apply_profile(
    bundle: DatasetBundle,
    profile: ErrorProfile | None,
    rng: int | np.random.Generator | None = 0,
) -> DatasetBundle:
    """Re-corrupt ``bundle``'s clean relation under ``profile``.

    ``None`` (the native profile) returns the bundle unchanged.  Otherwise
    the generator-injected errors are discarded and fresh ones drawn from
    ``profile``; the clean relation, constraints, and name carry over, so
    downstream code sees an ordinary :class:`DatasetBundle`.
    """
    if profile is None:
        return bundle
    dirty, truth = inject_errors(bundle.clean, profile, rng=rng)
    return DatasetBundle(
        name=bundle.name,
        clean=bundle.clean,
        dirty=dirty,
        truth=truth,
        constraints=bundle.constraints,
    )
