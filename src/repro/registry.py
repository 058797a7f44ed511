"""Unified component registry: one name → component map for the whole system.

HoloDetect is a *composition* — a representation model Q, a learned noisy
channel, and a classifier (§3.3) — and every part of that composition is
swappable.  Before this module each family kept its own private wiring:
``baselines/adapters.py`` had a method map, ``errors/profiles.py`` a profile
map, ``data/registry.py`` a generator map, and the feature pipeline a
hard-coded constructor list.  The registry replaces all of them with one
namespace of *kinds*:

========== ==========================================================
kind        component
========== ==========================================================
featurizer  representation models (``repro.features``)
method      evaluation methods (HoloDetect + the §6.1 baselines)
error_profile  named noise channels (``repro.errors.profiles``)
dataset     benchmark bundle generators (``repro.data``)
policy      augmentation-policy overrides (noisy-channel ablations)
calibrator  probability calibrators (``repro.core.calibration``)
========== ==========================================================

Built-ins register themselves at import time with the :meth:`Registry.register`
decorator, optionally carrying a *typed config dataclass* — parameter
mappings from spec files are validated against the dataclass's fields, so a
typo fails loudly with the list of valid keys instead of being swallowed.

User-defined components need **zero repo edits**: any key containing a
colon is treated as a ``"module:attr"`` reference.  The attribute is
imported and invoked as ``attr(**params)`` (classes and factory functions
both work); a non-callable attribute is used as-is and must take no
parameters.  Every consumer that resolves through the registry — detector
specs, sweep matrices, the CLI — therefore accepts external components out
of the box.

The module-level :data:`REGISTRY` is the process-wide instance; the
convenience functions :func:`register`, :func:`create`, :func:`names`, and
:func:`describe` operate on it.
"""

from __future__ import annotations

import dataclasses
import importlib
from dataclasses import dataclass
from typing import Any, Callable, Mapping

#: Modules that register built-in components on import.  Imported lazily on
#: first resolution so the registry itself has no repro dependencies (which
#: would be circular: those modules import this one to register).
_BUILTIN_MODULES = (
    "repro.features.pipeline",
    "repro.features.extra",
    "repro.errors.profiles",
    "repro.baselines.adapters",
    "repro.data.registry",
    "repro.core.calibration",
    "repro.augmentation.policy",
    "repro.baselines.augmentation_variants",
)


class ComponentError(ValueError):
    """A component reference could not be resolved or built."""


@dataclass(frozen=True)
class ComponentEntry:
    """One registered component: a factory plus its typed config (if any).

    ``config`` is a dataclass type whose fields define the valid parameter
    keys; ``None`` means the factory validates its own parameter mapping.
    ``builtin`` is False for ad-hoc ``module:attr`` resolutions, whose
    factories receive only their params (never injected context).
    """

    kind: str
    key: str
    factory: Callable[..., Any]
    config: type | None = None
    description: str = ""
    builtin: bool = True


def make_config(config_cls: type, params: Mapping[str, object], where: str):
    """Instantiate a config dataclass from a parameter mapping.

    Unknown keys raise a :class:`ComponentError` naming the valid fields —
    the actionable-error contract every spec-file consumer relies on.
    Dataclass ``__post_init__`` validation errors are re-raised with the
    component's name attached.
    """
    field_names = {f.name for f in dataclasses.fields(config_cls) if f.init}
    unknown = set(params) - field_names
    if unknown:
        raise ComponentError(
            f"{where}: unknown parameters {sorted(unknown)}; "
            f"valid keys: {sorted(field_names)}"
        )
    try:
        return config_cls(**params)
    except (TypeError, ValueError) as exc:
        raise ComponentError(f"{where}: {exc}") from exc


def _import_reference(key: str) -> Any:
    """Resolve a ``module:attr`` reference to the named attribute."""
    module_name, _, attr_path = key.partition(":")
    if not module_name or not attr_path:
        raise ComponentError(
            f"malformed reference {key!r}; expected 'module:attr'"
        )
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise ComponentError(f"cannot import module {module_name!r}: {exc}") from exc
    target = module
    for part in attr_path.split("."):
        try:
            target = getattr(target, part)
        except AttributeError:
            raise ComponentError(
                f"module {module_name!r} has no attribute {attr_path!r}"
            ) from None
    return target


class Registry:
    """Kind-namespaced name → :class:`ComponentEntry` map."""

    def __init__(self) -> None:
        self._entries: dict[tuple[str, str], ComponentEntry] = {}
        self._builtins_loaded = False

    # -- registration --------------------------------------------------- #

    def register(
        self,
        kind: str,
        key: str,
        *,
        config: type | None = None,
        description: str = "",
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator: register ``factory`` under ``(kind, key)``.

        ``config`` (optional) is a dataclass type; when present the factory
        is called with a validated instance instead of a raw mapping.
        """
        if ":" in key:
            raise ComponentError(
                f"registered keys may not contain ':' (got {key!r}); "
                "colons are reserved for module:attr references"
            )

        def decorator(factory: Callable[..., Any]) -> Callable[..., Any]:
            self.add(kind, key, factory, config=config, description=description)
            return factory

        return decorator

    def add(
        self,
        kind: str,
        key: str,
        factory: Callable[..., Any],
        *,
        config: type | None = None,
        description: str = "",
    ) -> ComponentEntry:
        """Imperative registration (the decorator's workhorse)."""
        slot = (kind, key)
        if slot in self._entries:
            raise ComponentError(f"duplicate registration for {kind} {key!r}")
        entry = ComponentEntry(
            kind=kind,
            key=key,
            factory=factory,
            config=config,
            description=description,
        )
        self._entries[slot] = entry
        return entry

    # -- resolution ----------------------------------------------------- #

    def _ensure_builtins(self) -> None:
        if self._builtins_loaded:
            return
        # Mark first: the builtin modules import this module, and several
        # import each other, so re-entrant resolution must not recurse.
        self._builtins_loaded = True
        for module in _BUILTIN_MODULES:
            importlib.import_module(module)

    def entry(self, kind: str, key: str) -> ComponentEntry:
        """The entry for ``(kind, key)``; resolves ``module:attr`` references.

        Unknown built-in keys raise a :class:`ComponentError` listing the
        registered names of the kind.
        """
        self._ensure_builtins()
        if ":" in key:
            target = _import_reference(key)
            if not callable(target):
                # Pre-built component object: usable as-is, no parameters.
                def factory(params: Mapping[str, object]) -> Any:
                    if params:
                        raise ComponentError(
                            f"{kind} {key!r} is not callable and takes no "
                            f"parameters, got {sorted(params)}"
                        )
                    return target

                return ComponentEntry(
                    kind=kind, key=key, factory=factory, builtin=False
                )
            return ComponentEntry(
                kind=kind,
                key=key,
                factory=lambda params: target(**params),
                builtin=False,
            )
        try:
            return self._entries[(kind, key)]
        except KeyError:
            known = self.names(kind)
            hint = (
                f"choose from {known} or use a 'module:attr' reference"
                if known
                else f"no components of kind {kind!r} are registered"
            )
            raise ComponentError(f"unknown {kind} {key!r}; {hint}") from None

    def create(
        self,
        kind: str,
        key: str,
        params: Mapping[str, object] | None = None,
        **context: object,
    ) -> Any:
        """Build the component ``(kind, key)`` from a parameter mapping.

        ``context`` carries consumer-supplied injections (e.g. the feature
        pipeline's shared RNG and constraints); it is forwarded to built-in
        factories only — external ``module:attr`` components receive just
        their own parameters.
        """
        entry = self.entry(kind, key)
        params = dict(params or {})
        where = f"{kind} {key!r}"
        if not entry.builtin:
            try:
                return entry.factory(params)
            except ComponentError:
                raise
            except (TypeError, ValueError) as exc:
                raise ComponentError(f"{where}: {exc}") from exc
        argument = (
            make_config(entry.config, params, where)
            if entry.config is not None
            else params
        )
        try:
            return entry.factory(argument, **context)
        except ComponentError:
            raise
        except (TypeError, ValueError) as exc:
            raise ComponentError(f"{where}: {exc}") from exc

    def names(self, kind: str) -> tuple[str, ...]:
        """Registered built-in keys of ``kind``, in registration order."""
        self._ensure_builtins()
        return tuple(key for k, key in self._entries if k == kind)

    def kinds(self) -> tuple[str, ...]:
        """All kinds with at least one registered component."""
        self._ensure_builtins()
        seen: dict[str, None] = {}
        for kind, _ in self._entries:
            seen.setdefault(kind)
        return tuple(seen)

    def describe(self, kind: str | None = None) -> list[dict[str, str]]:
        """Human/JSON-friendly listing of registered components."""
        self._ensure_builtins()
        rows = []
        for (k, key), entry in self._entries.items():
            if kind is not None and k != kind:
                continue
            rows.append(
                {
                    "kind": k,
                    "key": key,
                    "config": entry.config.__name__ if entry.config else "",
                    "description": entry.description,
                }
            )
        return rows


#: The process-wide registry every consumer resolves through.
REGISTRY = Registry()


def register(
    kind: str, key: str, *, config: type | None = None, description: str = ""
):
    """Register a component on the process-wide :data:`REGISTRY`."""
    return REGISTRY.register(kind, key, config=config, description=description)


def create(
    kind: str, key: str, params: Mapping[str, object] | None = None, **context
):
    """Build a component from the process-wide :data:`REGISTRY`."""
    return REGISTRY.create(kind, key, params, **context)


def names(kind: str) -> tuple[str, ...]:
    """Built-in keys of ``kind`` on the process-wide :data:`REGISTRY`."""
    return REGISTRY.names(kind)


def describe(kind: str | None = None) -> list[dict[str, str]]:
    """Component listing of the process-wide :data:`REGISTRY`."""
    return REGISTRY.describe(kind)
