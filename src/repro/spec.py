"""Declarative detector specification — ``repro.spec/v1``.

HoloDetect is a composition: a representation model Q (featurizers), a
learned noisy channel (augmentation policy), a classifier, and a
calibrator.  A :class:`DetectorSpec` describes that composition as *data* —
a TOML or JSON document — the way
:class:`~repro.evaluation.matrix.ScenarioMatrix` describes evaluation
sweeps.  Every component name resolves through the unified
:mod:`repro.registry`, so a spec can reference built-ins by key and
user-defined components as ``"module:attr"`` with zero repo edits.

Spec layout (TOML; JSON mirrors it)::

    schema = "repro.spec/v1"

    [detector]                  # DetectorConfig fields, all optional
    epochs = 40
    embedding_dim = 16
    seed = 0

    featurizers = [             # optional: omit for the Table 7 default
        "char_embedding",
        { name = "format_3gram", least_k = 2 },
        "mypkg.features:MyFeaturizer",          # module:attr reference
    ]

    policy = "learned"          # or "uniform", "random-channel", module:attr
    calibrator = "platt"        # or "none", module:attr; table form for params

    [artifacts]                 # optional fitted-artifact store (repro.artifacts)
    dir = "artifacts/"          # excluded from the fingerprint (execution detail)

Omitting ``featurizers`` selects the Table 7 default pipeline.  Every
detector carries a spec: ``HoloDetect(DetectorConfig(...))`` derives
``DetectorSpec.default(**fields that differ from their defaults)``, so
``HoloDetect(DetectorConfig()).spec == DetectorSpec.default()``.

Like :class:`~repro.evaluation.matrix.ScenarioSpec`, a spec carries a
SHA-256 content fingerprint over its canonical JSON form — stable under key
reordering, whitespace, and equivalent shorthand (a bare string entry and
its empty-params table form fingerprint identically).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.registry import REGISTRY, ComponentError
from repro.utils.specfile import canonical_json, component_entry, load_spec_file

#: Spec schema identifier; bump when the layout changes meaning.
SPEC_SCHEMA = "repro.spec/v1"

_TOP_LEVEL_KEYS = {
    "schema", "detector", "featurizers", "policy", "calibrator", "artifacts",
}

#: Valid keys of the optional ``[artifacts]`` table.
_ARTIFACT_KEYS = {"dir"}


class SpecError(ValueError):
    """A detector spec is malformed (unknown key, bad component, ...)."""


def _emit_entry(name: str, params: Mapping[str, object]) -> object:
    """The canonical emitted form: bare string unless params are present."""
    return {"name": name, **params} if params else name


def _freeze(value: object) -> object:
    """Recursively convert mappings/sequences to hashable immutable forms
    (mappings become sorted ``(key, value)`` pair tuples)."""
    if isinstance(value, Mapping):
        return tuple(sorted((str(k), _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _freeze_params(params: object) -> tuple:
    """Freeze a parameter mapping; idempotent on already-frozen pairs.

    The frozen form round-trips through ``dict(...)``, which is how every
    consumer reads it back.
    """
    if isinstance(params, Mapping):
        return _freeze(params)  # type: ignore[return-value]
    return tuple(params)  # already pair tuples


@dataclass(frozen=True)
class DetectorSpec:
    """A complete, buildable description of a HoloDetect detector.

    ``detector`` holds :class:`~repro.core.detector.DetectorConfig` field
    overrides; ``featurizers`` is ``None`` for the default Table 7 pipeline
    or a tuple of ``(name, params)`` component references; ``policy`` and
    ``calibrator`` are single component references.  Construct via
    :meth:`from_dict` / :meth:`from_file` (which validate every component
    eagerly) or :meth:`default`.

    Parameter mappings may be passed as dicts; ``__post_init__`` freezes
    them into sorted ``(key, value)`` pair tuples (read back with
    ``dict(...)``), so instances are deeply immutable and hashable — a
    validated spec cannot be mutated into an invalid one, and specs can key
    sets and dicts alongside their fingerprints.
    """

    detector: Mapping[str, object] | tuple = field(default_factory=dict)
    featurizers: tuple[tuple[str, Mapping[str, object] | tuple], ...] | None = None
    policy: tuple[str, Mapping[str, object] | tuple] = ("learned", ())
    calibrator: tuple[str, Mapping[str, object] | tuple] = ("platt", ())
    #: The optional ``[artifacts]`` table (``dir`` = fitted-artifact store
    #: directory).  Deliberately **excluded from the fingerprint**: the
    #: store is an execution accelerator, not part of the detector's
    #: mathematical composition — two specs differing only here describe
    #: bit-identical detectors.
    artifacts: Mapping[str, object] | tuple = field(default_factory=dict)

    def __post_init__(self) -> None:
        freeze = object.__setattr__
        freeze(self, "detector", _freeze_params(self.detector))
        freeze(self, "artifacts", _freeze_params(self.artifacts))
        if self.featurizers is not None:
            freeze(
                self,
                "featurizers",
                tuple((n, _freeze_params(p)) for n, p in self.featurizers),
            )
        freeze(self, "policy", (self.policy[0], _freeze_params(self.policy[1])))
        freeze(
            self, "calibrator", (self.calibrator[0], _freeze_params(self.calibrator[1]))
        )

    # -- construction ---------------------------------------------------- #

    @classmethod
    def default(cls, **detector_overrides: object) -> "DetectorSpec":
        """The default components with ``detector_overrides`` as the
        ``[detector]`` table.

        With overrides that differ from their field defaults, this is the
        spec ``HoloDetect(DetectorConfig(**overrides))`` derives.  An
        override that spells out a default builds the same detector under
        another fingerprint: the fingerprint hashes the table as written.
        """
        return cls(detector=dict(detector_overrides))

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "DetectorSpec":
        """Validate and build a spec from a parsed mapping.

        Every component reference is resolved through the registry *now* —
        unknown names, unimportable ``module:attr`` references, and bad
        parameters fail here with actionable messages, not inside ``fit()``.
        """
        if not isinstance(payload, Mapping):
            raise SpecError("spec must be a mapping at top level")
        unknown = set(payload) - _TOP_LEVEL_KEYS
        if unknown:
            raise SpecError(
                f"unknown spec keys {sorted(unknown)}; valid: {sorted(_TOP_LEVEL_KEYS)}"
            )
        schema = payload.get("schema")
        if schema != SPEC_SCHEMA:
            raise SpecError(
                f"spec needs schema = {SPEC_SCHEMA!r}, got {schema!r}"
            )

        detector = payload.get("detector", {})
        if not isinstance(detector, Mapping):
            raise SpecError("[detector] must be a table of DetectorConfig fields")

        raw_featurizers = payload.get("featurizers")
        featurizers: tuple[tuple[str, Mapping[str, object]], ...] | None = None
        if raw_featurizers is not None:
            if isinstance(raw_featurizers, (str, bytes)) or not isinstance(
                raw_featurizers, Sequence
            ):
                raise SpecError("featurizers must be a list of component references")
            if not raw_featurizers:
                raise SpecError(
                    "featurizers must be a non-empty list; omit the key "
                    "entirely for the default pipeline"
                )
            featurizers = tuple(
                component_entry(raw, "featurizers", SpecError)
                for raw in raw_featurizers
            )

        policy = component_entry(payload.get("policy", "learned"), "policy", SpecError)
        calibrator = component_entry(
            payload.get("calibrator", "platt"), "calibrator", SpecError
        )

        artifacts = payload.get("artifacts", {})
        if not isinstance(artifacts, Mapping):
            raise SpecError("[artifacts] must be a table")

        spec = cls(
            detector=detector,
            featurizers=featurizers,
            policy=policy,
            calibrator=calibrator,
            artifacts=dict(artifacts),
        )
        spec.validate()
        return spec

    @classmethod
    def from_file(cls, path: str | Path) -> "DetectorSpec":
        """Load a spec file; format chosen by suffix (.toml or .json)."""
        return load_spec_file(path, cls.from_dict, SpecError)

    # -- validation ------------------------------------------------------ #

    def validate(self) -> "DetectorSpec":
        """Resolve every referenced component; raise :class:`SpecError` on
        the first failure.  Returns self for chaining."""
        from repro.core.detector import DetectorConfig
        from repro.features.pipeline import FeaturizerContext, build_pipeline

        detector = dict(self.detector)
        if "artifact_dir" in detector:
            # Files and direct construction alike: the store location must
            # never enter the (fingerprinted) [detector] table.
            raise SpecError(
                "artifact_dir is not spec-able under [detector]; use the "
                "[artifacts] table's 'dir' key instead"
            )
        try:
            config = DetectorConfig(**detector)
        except TypeError as exc:
            valid = sorted(
                f.name for f in dataclasses.fields(DetectorConfig)
                if f.name != "artifact_dir"
            )
            raise SpecError(f"[detector]: {exc}; valid keys: {valid}") from exc
        except ValueError as exc:
            raise SpecError(f"[detector]: {exc}") from exc

        if self.featurizers is not None:
            ctx = FeaturizerContext(
                embedding_dim=config.embedding_dim,
                embedding_epochs=config.embedding_epochs,
            )
            try:
                build_pipeline(list(self.featurizers), ctx)
            except (ComponentError, ValueError) as exc:
                raise SpecError(f"featurizers: {exc}") from exc

        for kind, (name, params) in (
            ("policy", self.policy),
            ("calibrator", self.calibrator),
        ):
            try:
                REGISTRY.create(kind, name, params)
            except ComponentError as exc:
                raise SpecError(str(exc)) from exc

        artifacts = dict(self.artifacts)
        unknown = set(artifacts) - _ARTIFACT_KEYS
        if unknown:
            raise SpecError(
                f"[artifacts]: unknown keys {sorted(unknown)}; "
                f"valid: {sorted(_ARTIFACT_KEYS)}"
            )
        directory = artifacts.get("dir")
        if directory is not None and not isinstance(directory, str):
            raise SpecError(f"[artifacts]: dir must be a string, got {directory!r}")
        return self

    # -- canonical form + fingerprint ------------------------------------ #

    def to_dict(self) -> dict[str, object]:
        """The canonical JSON-able form.

        The ``artifacts`` table is emitted only when present, so specs
        without one serialise exactly as they did before the table existed.
        """
        payload: dict[str, object] = {
            "schema": SPEC_SCHEMA,
            "detector": dict(self.detector),
            "featurizers": (
                None
                if self.featurizers is None
                else [_emit_entry(n, dict(p)) for n, p in self.featurizers]
            ),
            "policy": _emit_entry(self.policy[0], dict(self.policy[1])),
            "calibrator": _emit_entry(self.calibrator[0], dict(self.calibrator[1])),
        }
        if dict(self.artifacts):
            payload["artifacts"] = dict(self.artifacts)
        return payload

    def fingerprint(self) -> str:
        """SHA-256 over the canonical spec: stable across key ordering,
        whitespace, shorthand/table component forms, and sessions — and
        across the ``[artifacts]`` table, which describes *where* fitted
        artifacts live, never *what* the detector computes."""
        payload = self.to_dict()
        payload.pop("artifacts", None)
        canonical = f"{SPEC_SCHEMA}:{canonical_json(payload)}"
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def to_file(self, path: str | Path) -> None:
        """Write the canonical JSON form (pretty-printed) to ``path``."""
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    # -- building -------------------------------------------------------- #

    def build(self):
        """Construct the (unfitted) detector this spec describes."""
        from repro.core.detector import HoloDetect

        return HoloDetect.from_spec(self)

    def describe(self) -> str:
        """Human-readable component summary (``repro spec describe``)."""
        from repro.core.detector import DetectorConfig

        config = DetectorConfig(**dict(self.detector))
        lines = [
            f"schema:      {SPEC_SCHEMA}",
            f"fingerprint: {self.fingerprint()}",
            "",
            "[detector]",
        ]
        defaults = DetectorConfig()
        for f in dataclasses.fields(DetectorConfig):
            if f.name == "artifact_dir":
                continue
            value = getattr(config, f.name)
            marker = "" if value == getattr(defaults, f.name) else "   (override)"
            lines.append(f"  {f.name} = {value!r}{marker}")
        lines.append("")
        if self.featurizers is None:
            lines.append("featurizers: <default Table 7 pipeline>")
        else:
            lines.append("featurizers:")
            for name, params in self.featurizers:
                suffix = f"  {dict(params)}" if params else ""
                lines.append(f"  - {name}{suffix}")
        for label, (name, params) in (
            ("policy", self.policy),
            ("calibrator", self.calibrator),
        ):
            suffix = f"  {dict(params)}" if params else ""
            lines.append(f"{label + ':':<12} {name}{suffix}")
        artifacts = dict(self.artifacts)
        if artifacts:
            lines.append(f"{'artifacts:':<12} {artifacts}  (not fingerprinted)")
        return "\n".join(lines)


#: Shortest spec-fingerprint abbreviation accepted by :func:`resolve_fingerprint`.
MIN_FINGERPRINT_PREFIX = 6


def resolve_fingerprint(query: str, fingerprints: "Iterable[str]") -> str:
    """Expand a (possibly abbreviated) spec fingerprint to exactly one match.

    The serving layer routes requests by :meth:`DetectorSpec.fingerprint`;
    like git object ids, the full 64-hex digest is unwieldy on a command
    line, so any unique prefix of at least :data:`MIN_FINGERPRINT_PREFIX`
    characters resolves.  Raises :class:`SpecError` when the query is too
    short, unknown, or ambiguous — naming the candidates, so a caller can
    surface an actionable error.
    """
    if not isinstance(query, str) or not query:
        raise SpecError(f"fingerprint query must be a non-empty string, got {query!r}")
    candidates = sorted(set(fingerprints))
    if query in candidates:
        return query
    if len(query) < MIN_FINGERPRINT_PREFIX:
        raise SpecError(
            f"fingerprint prefix {query!r} is too short "
            f"(need >= {MIN_FINGERPRINT_PREFIX} characters)"
        )
    matches = [f for f in candidates if f.startswith(query)]
    if not matches:
        raise SpecError(
            f"unknown spec fingerprint {query!r} "
            f"({len(candidates)} known: {[f[:12] for f in candidates]})"
        )
    if len(matches) > 1:
        raise SpecError(
            f"ambiguous fingerprint prefix {query!r}: "
            f"matches {[f[:12] for f in matches]}"
        )
    return matches[0]


def load_spec(source: "DetectorSpec | Mapping[str, object] | str | Path") -> DetectorSpec:
    """Coerce a spec source — instance, mapping, or file path — to a spec."""
    if isinstance(source, DetectorSpec):
        return source
    if isinstance(source, Mapping):
        return DetectorSpec.from_dict(source)
    return DetectorSpec.from_file(source)


def build(source: "DetectorSpec | Mapping[str, object] | str | Path"):
    """Build an (unfitted) detector from a spec, mapping, or spec file.

    The declarative mirror of ``HoloDetect(DetectorConfig(...))``::

        detector = repro.build("detector.toml")
        detector.fit(dataset, training, constraints)
    """
    return load_spec(source).build()
