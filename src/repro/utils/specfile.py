"""Declarative spec files: one loader, one entry normaliser, one canonical form.

Detector specs (:mod:`repro.spec`) and sweep matrices
(:mod:`repro.evaluation.matrix`) are TOML or JSON documents whose component
lists take the same name-or-table entries, and every content fingerprint in
the system (spec, scenario, artifact key) hashes the same canonical JSON.
Each of those three jobs is done here, once; callers pass the error class
their own API raises.  :func:`require_int` is the one integer check every
spec-able config uses.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Mapping, TypeVar

T = TypeVar("T")


def canonical_json(payload: object) -> str:
    """Canonical JSON: sorted keys at every depth, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def load_spec_file(
    path: str | Path, build: Callable[[Mapping[str, object]], T], error: type[ValueError]
) -> T:
    """Parse a ``.toml`` or ``.json`` spec file and ``build`` its top-level
    table into the spec object.

    Every problem — a missing file, an unknown suffix, a syntax error, a
    top level that is not a table, an ``error`` from ``build`` — raises
    ``error`` naming the path.
    """
    path = Path(path)
    if not path.exists():
        raise error(f"spec file not found: {path}")
    suffix = path.suffix.lower()
    if suffix == ".toml":
        import tomllib

        try:
            payload = tomllib.loads(path.read_text(encoding="utf-8"))
        except tomllib.TOMLDecodeError as exc:
            raise error(f"{path}: invalid TOML: {exc}") from exc
    elif suffix == ".json":
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise error(f"{path}: invalid JSON: {exc}") from exc
    else:
        raise error(f"{path}: unsupported spec format {suffix!r} (use .toml or .json)")
    if not isinstance(payload, Mapping):
        raise error(f"{path}: spec must be a mapping at top level")
    try:
        return build(payload)
    except error as exc:
        raise error(f"{path}: {exc}") from exc


_INT_KINDS = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}


def require_int(name: str, value: object, minimum: int | None = None) -> None:
    """Check a count-like setting: an ``int`` of at least ``minimum``.

    ``bool`` is excluded although Python counts it as an ``int``: a TOML or
    JSON ``true`` is never an integer.  Raises ``ValueError`` naming the
    setting and the offending value.
    """
    if (
        not isinstance(value, int)
        or isinstance(value, bool)
        or (minimum is not None and value < minimum)
    ):
        raise ValueError(f"{name} must be {_INT_KINDS[minimum]}, got {value!r}")


def component_entry(
    raw: object, where: str, error: type[ValueError]
) -> tuple[str, dict[str, object]]:
    """Normalise a component entry — a bare name or a table with a string
    ``name`` plus parameters — to ``(name, params)``."""
    if isinstance(raw, str):
        return raw, {}
    if isinstance(raw, Mapping):
        entry = dict(raw)
        name = entry.pop("name", None)
        if not isinstance(name, str):
            raise error(f"{where} entry {raw!r} needs a string 'name'")
        return name, entry
    raise error(f"{where} entry {raw!r} must be a string or a table with 'name'")
