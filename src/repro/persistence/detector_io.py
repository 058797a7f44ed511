"""Save/load a fitted HoloDetect detector to an explicit on-disk format.

Public API
----------

:func:`save_detector(detector, path)`
    Serialise a *fitted* :class:`~repro.core.detector.HoloDetect` to
    ``path`` (a directory, created if needed).  Raises ``ValueError`` on an
    unfitted detector.  Everything needed to predict is captured: the
    detector config, every fitted featurizer of the pipeline (including
    per-attribute embedding tables), the joint model's weights, the Platt
    scaler, the learned augmentation policy, and the training-cell set.

:func:`load_detector(path, dataset)`
    Reconstruct the detector and re-attach it to ``dataset`` — the same
    relation it was fitted on (data stays with the user; it is never
    written to disk by this module).  The loaded detector predicts exactly
    as the original did.  Feature caches are never persisted, and none is
    attached on load.  Featurizer
    ``scope`` declarations are class-level, so a loaded detector drops
    straight into a :class:`~repro.core.detector.DetectionSession` for
    incremental re-scoring (``repro rescore --model <path>``).

On-disk layout
--------------

::

    <path>/state.json   # structured state; arrays appear as {"__array__": key}
    <path>/arrays.npz   # the referenced arrays, compressed
    <path>/spec.json    # the DetectorSpec (only for spec-built detectors)

Arrays are split out by :func:`~repro.artifacts.store.flatten_arrays`, the
same array layer artifact objects use.  Each pipeline entry is
``{"type": <class name>, **featurizer.to_state()}``: every built-in
featurizer owns its saved state (constructor arguments and fitted tables),
so this module only maps class names back to classes.

``state.json`` carries a ``format_version`` (currently 1); loading rejects
unknown versions rather than guessing.  Configs saved by older versions of
the code load with defaults for any fields added since (``DetectorConfig``
fills them in), so the format is forward-extensible without a version bump
for config-only additions, and featurizer states gain keys the same way
(older n-gram entries lack ``n``, which their per-column models record).
Config keys of retired options (``backend``, ``compute_dtype``,
``prediction_workers``, ``feature_cache``, ``cache_max_entries``,
``cache_max_bytes``) are dropped on load, from the config and from an
embedded spec's ``detector`` table, as is a spec's retired ``compute``
table.

A detector built from a :class:`~repro.spec.DetectorSpec` saves the spec's
canonical form both inside ``state.json`` and as a human-readable
``spec.json`` sidecar (with its fingerprint), and :func:`load_detector`
restores ``detector.spec`` — so a reloaded detector knows the declarative
composition it was built from.  Saves from before the spec era load with
``spec = None``.

Custom ``module:attr`` featurizers have no saved state; saving a pipeline
containing one raises ``TypeError`` naming the offending type.  The
built-in opt-in models of :mod:`repro.features.extra` are handled.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro import features
from repro.artifacts.codec import featurizer_state
from repro.artifacts.store import flatten_arrays, restore_arrays
from repro.augmentation.policy import Policy, UniformPolicy
from repro.augmentation.transformations import Transformation
# Constraint (de)serialisation lives with the constraints; re-exported here.
from repro.constraints.dc import decode_constraint, encode_constraint  # noqa: F401
from repro.core.calibration import PlattScaler
from repro.core.detector import DetectorConfig, HoloDetect
from repro.core.model import JointModel
from repro.dataset.table import Cell, Dataset

FORMAT_VERSION = 1

#: The featurizers a save can hold, by the class name its entries record.
_FEATURIZER_TYPES: dict[str, type[features.Featurizer]] = {
    cls.__name__: cls
    for cls in (
        features.CharEmbeddingFeaturizer,
        features.WordEmbeddingFeaturizer,
        features.FormatNGramFeaturizer,
        features.SymbolicNGramFeaturizer,
        features.EmpiricalDistributionFeaturizer,
        features.ColumnIdFeaturizer,
        features.CooccurrenceFeaturizer,
        features.TupleEmbeddingFeaturizer,
        features.NeighborhoodFeaturizer,
        features.ConstraintViolationFeaturizer,
        features.ValueLengthFeaturizer,
        features.TokenFrequencyFeaturizer,
    )
}


# --------------------------------------------------------------------- #
# Policies
# --------------------------------------------------------------------- #


def encode_policy(policy: Policy) -> dict:
    entries = [
        {"src": t.src, "dst": t.dst, "p": policy.probability(t)}
        for t in policy.transformations
    ]
    kind = "uniform" if isinstance(policy, UniformPolicy) else "learned"
    return {"kind": kind, "entries": entries}


def decode_policy(state: dict) -> Policy:
    transformations = [Transformation(e["src"], e["dst"]) for e in state["entries"]]
    if state["kind"] == "uniform":
        return UniformPolicy(transformations)
    distribution = {
        Transformation(e["src"], e["dst"]): e["p"] for e in state["entries"]
    }
    return Policy(distribution)


# --------------------------------------------------------------------- #
# Featurizers
# --------------------------------------------------------------------- #


def _encode_featurizer(f: features.Featurizer) -> dict:
    if _FEATURIZER_TYPES.get(type(f).__name__) is not type(f):
        raise TypeError(f"no persistence handler for {type(f).__name__}")
    return featurizer_state(f)


def _decode_featurizer(state: dict) -> features.Featurizer:
    cls = _FEATURIZER_TYPES.get(state["type"])
    if cls is None:
        raise TypeError(f"unknown featurizer type {state['type']!r}")
    return cls.from_state(state)


# --------------------------------------------------------------------- #
# Detector
# --------------------------------------------------------------------- #


#: Config fields that are live objects, not serialisable settings.
_UNSAVED_CONFIG_FIELDS = ("policy_override", "artifact_store")

#: Config fields of retired options that older saves still carry.
_RETIRED_CONFIG_FIELDS = (
    "backend", "compute_dtype", "prediction_workers",
    "feature_cache", "cache_max_entries", "cache_max_bytes",
)


def _encode_config(config: DetectorConfig) -> dict:
    state = {
        field: getattr(config, field)
        for field in config.__dataclass_fields__
        if field not in _UNSAVED_CONFIG_FIELDS
    }
    if state.get("artifact_dir") is not None:
        # Path objects are valid config values but not JSON.
        state["artifact_dir"] = str(state["artifact_dir"])
    return state


def _decode_config(state: dict) -> DetectorConfig:
    state = {k: v for k, v in state.items() if k not in _RETIRED_CONFIG_FIELDS}
    state["exclude_models"] = tuple(state["exclude_models"])
    return DetectorConfig(**state)


def _decode_spec(state: dict):
    """The saved :class:`~repro.spec.DetectorSpec`, minus the retired
    ``compute`` table and any retired ``detector`` keys."""
    from repro.spec import DetectorSpec

    state = {k: v for k, v in state.items() if k != "compute"}
    if isinstance(state.get("detector"), dict):
        state["detector"] = {
            k: v
            for k, v in state["detector"].items()
            if k not in _RETIRED_CONFIG_FIELDS
        }
    return DetectorSpec.from_dict(state)


def save_detector(detector: HoloDetect, path: str | Path) -> None:
    """Serialise a fitted detector to ``path`` (a directory, created if
    needed)."""
    if detector.model is None or detector.pipeline is None:
        raise ValueError("cannot save an unfitted detector")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    pipeline = detector.pipeline
    state = {
        "format_version": FORMAT_VERSION,
        "config": _encode_config(detector.config),
        "pipeline": {
            "featurizers": [_encode_featurizer(f) for f in pipeline.featurizers],
            "numeric_mean": pipeline._numeric_mean,
            "numeric_std": pipeline._numeric_std,
        },
        "model": {
            "numeric_dim": detector.model.numeric_dim,
            "branch_dims": pipeline.branch_dims,
            "hidden_dim": detector.config.hidden_dim,
            "dropout": detector.config.dropout,
            "arrays": detector.model.state_arrays(),
        },
        "scaler": {"a": detector.scaler.a, "b": detector.scaler.b},
        "policy": encode_policy(detector.policy) if detector.policy else None,
        "augmented_count": detector.augmented_count,
        # The content keys of the fitted artifacts this detector was built
        # from (see repro.artifacts) — provenance linking a saved model to
        # the store entries that can rebuild its representation models.
        "artifact_keys": dict(detector.artifact_keys),
        "train_cells": [[c.row, c.attr] for c in sorted(
            detector._train_cells, key=lambda c: (c.row, c.attr)
        )],
        "spec": detector.spec.to_dict() if detector.spec is not None else None,
    }
    arrays: dict[str, np.ndarray] = {}
    (path / "state.json").write_text(flatten_arrays(state, arrays), encoding="utf-8")
    np.savez_compressed(path / "arrays.npz", **arrays)
    if detector.spec is not None:
        # Human-readable sidecar: the declarative composition + fingerprint.
        (path / "spec.json").write_text(
            json.dumps(
                {
                    "fingerprint": detector.spec.fingerprint(),
                    "spec": detector.spec.to_dict(),
                },
                indent=2,
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )


def detector_fingerprint(path: str | Path) -> str | None:
    """The spec fingerprint of one saved detector directory, or ``None``.

    Reads the ``spec.json`` sidecar when present (cheap — no arrays touched);
    falls back to recomputing from the spec embedded in ``state.json``.
    Spec-less saves (imperative construction) have no fingerprint.
    """
    path = Path(path)
    sidecar = path / "spec.json"
    if sidecar.exists():
        try:
            payload = json.loads(sidecar.read_text(encoding="utf-8"))
            fingerprint = payload.get("fingerprint")
            detector = (payload.get("spec") or {}).get("detector") or {}
            # A spec that set a retired option loads without it, under a
            # new fingerprint: the recorded one is stale.
            stale = any(k in detector for k in _RETIRED_CONFIG_FIELDS)
            if isinstance(fingerprint, str) and fingerprint and not stale:
                return fingerprint
        except (json.JSONDecodeError, OSError, AttributeError, TypeError):
            pass  # fall through to state.json
    state_path = path / "state.json"
    if not state_path.exists():
        return None
    try:
        state = json.loads(state_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, OSError):
        return None
    spec_state = state.get("spec")
    if spec_state is None:
        return None
    from repro.spec import SpecError

    try:
        return _decode_spec(spec_state).fingerprint()
    except SpecError:
        return None


def detector_index(root: str | Path) -> dict[str, Path]:
    """Scan ``root`` for saved detectors; map spec fingerprint → directory.

    A *model root* is a directory whose immediate children are
    :func:`save_detector` outputs (any directory containing ``state.json``
    is considered; unreadable or spec-less saves are skipped rather than
    failing the scan).  When two saves carry the same fingerprint the
    lexically last directory wins, deterministically.
    """
    root = Path(root)
    index: dict[str, Path] = {}
    if not root.is_dir():
        return index
    for entry in sorted(root.iterdir()):
        if not entry.is_dir() or not (entry / "state.json").exists():
            continue
        fingerprint = detector_fingerprint(entry)
        if fingerprint is not None:
            index[fingerprint] = entry
    return index


def load_detector_by_fingerprint(
    root: str | Path, fingerprint: str, dataset: Dataset
) -> HoloDetect:
    """Load the saved detector whose spec fingerprint matches ``fingerprint``.

    ``fingerprint`` may be a unique prefix (>= 6 chars, git style); raises
    :class:`~repro.spec.SpecError` when it is unknown or ambiguous within
    ``root``.
    """
    from repro.spec import resolve_fingerprint

    index = detector_index(root)
    return load_detector(index[resolve_fingerprint(fingerprint, index)], dataset)


def load_detector(path: str | Path, dataset: Dataset) -> HoloDetect:
    """Load a detector saved by :func:`save_detector` and re-attach it to
    ``dataset`` (the same relation it was fitted on)."""
    path = Path(path)
    text = (path / "state.json").read_text(encoding="utf-8")
    with np.load(path / "arrays.npz") as npz:
        state = restore_arrays(text, {k: npz[k] for k in npz.files})
    if state["format_version"] != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {state['format_version']}")

    detector = HoloDetect(_decode_config(state["config"]))
    if state.get("spec") is not None:
        detector.spec = _decode_spec(state["spec"])
    pipeline_state = state["pipeline"]
    detector.pipeline = features.FeaturePipeline(
        [_decode_featurizer(f) for f in pipeline_state["featurizers"]]
    )
    detector.pipeline._numeric_mean = pipeline_state["numeric_mean"]
    detector.pipeline._numeric_std = pipeline_state["numeric_std"]
    detector.pipeline._fitted = True
    if detector._artifact_store is not None:
        # Re-point the decoded pipeline at the config's artifact store too,
        # so refresh-time refits consult it (store contents live on disk;
        # only the attachment needs rebuilding).
        detector.use_artifacts(detector._artifact_store)
    model_state = state["model"]
    detector.model = JointModel(
        numeric_dim=model_state["numeric_dim"],
        branch_dims=model_state["branch_dims"],
        hidden_dim=model_state["hidden_dim"],
        dropout=model_state["dropout"],
        rng=0,
    )
    detector.model.load_state_arrays(model_state["arrays"])
    detector.model.eval()
    detector.scaler = PlattScaler()
    detector.scaler.a = state["scaler"]["a"]
    detector.scaler.b = state["scaler"]["b"]
    detector.scaler._fitted = True
    detector.policy = decode_policy(state["policy"]) if state["policy"] else None
    detector.augmented_count = state["augmented_count"]
    # Saves from before the artifact store load with no keys.
    detector.artifact_keys = dict(state.get("artifact_keys", {}))
    detector._train_cells = {Cell(int(r), a) for r, a in state["train_cells"]}
    detector._dataset = dataset
    return detector
