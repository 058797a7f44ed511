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
    as the original did.  A fresh feature cache is attached according to
    the saved config; caches themselves are never persisted.  Featurizer
    ``scope`` declarations are class-level, so a loaded detector drops
    straight into a :class:`~repro.core.detector.DetectionSession` for
    incremental re-scoring (``repro rescore --model <path>``).

On-disk layout
--------------

::

    <path>/state.json   # structured state; arrays appear as {"__array__": key}
    <path>/arrays.npz   # the referenced arrays, compressed
    <path>/spec.json    # the DetectorSpec (only for spec-built detectors)

``state.json`` carries a ``format_version`` (currently 1); loading rejects
unknown versions rather than guessing.  Configs saved by older versions of
the code load with defaults for any fields added since (``DetectorConfig``
fills them in), so the format is forward-extensible without a version bump
for config-only additions.  Saves from before the training core lost its
backend selection carry ``backend``/``compute_dtype`` config keys and may
embed a spec with a ``compute`` table; loading drops both.

A detector built from a :class:`~repro.spec.DetectorSpec` saves the spec's
canonical form both inside ``state.json`` and as a human-readable
``spec.json`` sidecar (with its fingerprint), and :func:`load_detector`
restores ``detector.spec`` — so a reloaded detector knows the declarative
composition it was built from.  Saves from before the spec era load with
``spec = None``.

Custom ``module:attr`` featurizers have no encode/decode handler here;
saving a pipeline containing one raises ``TypeError`` listing the
offending type.  The built-in opt-in models of
:mod:`repro.features.extra` are handled.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.augmentation.policy import Policy, UniformPolicy
from repro.augmentation.transformations import Transformation
from repro.constraints.dc import DenialConstraint, Predicate
from repro.core.calibration import PlattScaler
from repro.core.detector import DetectorConfig, HoloDetect
from repro.core.model import JointModel
from repro.dataset.table import Cell, Dataset
from repro.features.attribute import (
    CharEmbeddingFeaturizer,
    ColumnIdFeaturizer,
    EmpiricalDistributionFeaturizer,
    FormatNGramFeaturizer,
    SymbolicNGramFeaturizer,
    WordEmbeddingFeaturizer,
)
from repro.features.base import Featurizer
from repro.features.dataset_level import (
    ConstraintViolationFeaturizer,
    NeighborhoodFeaturizer,
)
from repro.features.extra import TokenFrequencyFeaturizer, ValueLengthFeaturizer
from repro.features.pipeline import FeaturePipeline
from repro.features.tuple_level import CooccurrenceFeaturizer, TupleEmbeddingFeaturizer
from repro.embeddings.fasttext import FastTextEmbedding
from repro.text.ngrams import NGramModel, SymbolicNGramModel

FORMAT_VERSION = 1


class ArrayStore:
    """Collects numpy arrays during encoding; resolves references on decode."""

    def __init__(self, arrays: dict[str, np.ndarray] | None = None):
        self._arrays: dict[str, np.ndarray] = dict(arrays or {})
        self._counter = 0

    def put(self, array: np.ndarray) -> dict:
        key = f"a{self._counter}"
        self._counter += 1
        self._arrays[key] = np.asarray(array)
        return {"__array__": key}

    def get(self, ref: dict) -> np.ndarray:
        return self._arrays[ref["__array__"]]

    @property
    def arrays(self) -> dict[str, np.ndarray]:
        return dict(self._arrays)


# --------------------------------------------------------------------- #
# Constraints
# --------------------------------------------------------------------- #


def encode_constraint(dc: DenialConstraint) -> dict:
    return {
        "name": dc.name,
        "predicates": [
            {
                "left": p.left_attr,
                "op": p.op,
                "right": p.right_attr,
                "const": p.constant,
            }
            for p in dc.predicates
        ],
    }


def decode_constraint(state: dict) -> DenialConstraint:
    predicates = tuple(
        Predicate(p["left"], p["op"], right_attr=p["right"], constant=p["const"])
        for p in state["predicates"]
    )
    return DenialConstraint(predicates, name=state["name"])


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


def _encode_embedding(model: FastTextEmbedding, store: ArrayStore) -> dict:
    state = model.to_state()
    state["in_table"] = store.put(state["in_table"])
    state["out_table"] = store.put(state["out_table"])
    return state


def _decode_embedding(state: dict, store: ArrayStore) -> FastTextEmbedding:
    state = dict(state)
    state["in_table"] = store.get(state["in_table"])
    state["out_table"] = store.get(state["out_table"])
    return FastTextEmbedding.from_state(state)


def _pairs(d: dict) -> list:
    """dict with string keys -> JSON-safe [key, value] pairs list."""
    return [[k, v] for k, v in d.items()]


def _encode_featurizer(f: Featurizer, store: ArrayStore) -> dict:
    """Dispatch on featurizer type; returns a JSON-safe state dict."""
    if isinstance(f, (CharEmbeddingFeaturizer, WordEmbeddingFeaturizer)):
        return {
            "type": type(f).__name__,
            "dim": f._dim,
            "epochs": f._epochs,
            "models": {a: _encode_embedding(m, store) for a, m in f._models.items()},
        }
    if isinstance(f, (FormatNGramFeaturizer, SymbolicNGramFeaturizer)):
        return {
            "type": type(f).__name__,
            "least_k": f._least_k,
            "models": {a: m.to_state() for a, m in f._models.items()},
        }
    if isinstance(f, EmpiricalDistributionFeaturizer):
        return {
            "type": "EmpiricalDistributionFeaturizer",
            "counts": {a: _pairs(c) for a, c in f._counts.items()},
            "totals": dict(f._totals),
        }
    if isinstance(f, ColumnIdFeaturizer):
        return {"type": "ColumnIdFeaturizer", "index": dict(f._index)}
    if isinstance(f, CooccurrenceFeaturizer):
        joint = [
            [list(key), {attr: _pairs(counts) for attr, counts in buckets.items()}]
            for key, buckets in f._joint.items()
        ]
        return {
            "type": "CooccurrenceFeaturizer",
            "attributes": list(f._attributes),
            "value_counts": [[list(k), v] for k, v in f._value_counts.items()],
            "joint": joint,
        }
    if isinstance(f, TupleEmbeddingFeaturizer):
        return {
            "type": "TupleEmbeddingFeaturizer",
            "dim": f._dim,
            "epochs": f._epochs,
            "model": _encode_embedding(f._model, store),
        }
    if isinstance(f, NeighborhoodFeaturizer):
        return {
            "type": "NeighborhoodFeaturizer",
            "dim": f._dim,
            "epochs": f._epochs,
            "model": _encode_embedding(f._model, store),
        }
    if isinstance(f, ValueLengthFeaturizer):
        return {
            "type": "ValueLengthFeaturizer",
            "stats": {a: list(s) for a, s in f._stats.items()},
        }
    if isinstance(f, TokenFrequencyFeaturizer):
        return {
            "type": "TokenFrequencyFeaturizer",
            "alpha": f.alpha,
            "counts": {a: _pairs(c) for a, c in f._counts.items()},
            "totals": dict(f._totals),
        }
    if isinstance(f, ConstraintViolationFeaturizer):
        indexes = []
        for index in f._fd_indexes:
            if index is None:
                indexes.append(None)
            else:
                indexes.append(
                    {
                        "join_attrs": index["join_attrs"],
                        "residual_attr": index["residual_attr"],
                        "groups": [
                            [list(k), _pairs(v)] for k, v in index["groups"].items()
                        ],
                    }
                )
        return {
            "type": "ConstraintViolationFeaturizer",
            "constraints": [encode_constraint(c) for c in f._constraints],
            "tuple_counts": store.put(f._tuple_counts),
            "fd_indexes": indexes,
        }
    raise TypeError(f"no persistence handler for {type(f).__name__}")


def _decode_featurizer(state: dict, store: ArrayStore) -> Featurizer:
    kind = state["type"]
    if kind in ("CharEmbeddingFeaturizer", "WordEmbeddingFeaturizer"):
        cls = CharEmbeddingFeaturizer if kind.startswith("Char") else WordEmbeddingFeaturizer
        f = cls(dim=state["dim"], epochs=state["epochs"])
        f._models = {a: _decode_embedding(m, store) for a, m in state["models"].items()}
        return f
    if kind in ("FormatNGramFeaturizer", "SymbolicNGramFeaturizer"):
        cls = FormatNGramFeaturizer if kind.startswith("Format") else SymbolicNGramFeaturizer
        model_cls = NGramModel if kind.startswith("Format") else SymbolicNGramModel
        f = cls(least_k=state["least_k"])
        f._models = {a: model_cls.from_state(m) for a, m in state["models"].items()}
        return f
    if kind == "EmpiricalDistributionFeaturizer":
        f = EmpiricalDistributionFeaturizer()
        f._counts = {a: {k: int(v) for k, v in pairs} for a, pairs in state["counts"].items()}
        f._totals = {a: int(t) for a, t in state["totals"].items()}
        return f
    if kind == "ColumnIdFeaturizer":
        f = ColumnIdFeaturizer()
        f._index = {a: int(i) for a, i in state["index"].items()}
        return f
    if kind == "CooccurrenceFeaturizer":
        f = CooccurrenceFeaturizer()
        f._attributes = tuple(state["attributes"])
        f._value_counts = {tuple(k): int(v) for k, v in state["value_counts"]}
        f._joint = {
            tuple(key): {
                attr: {k: int(v) for k, v in pairs} for attr, pairs in buckets.items()
            }
            for key, buckets in state["joint"]
        }
        return f
    if kind == "TupleEmbeddingFeaturizer":
        f = TupleEmbeddingFeaturizer(dim=state["dim"], epochs=state["epochs"])
        f._model = _decode_embedding(state["model"], store)
        return f
    if kind == "NeighborhoodFeaturizer":
        f = NeighborhoodFeaturizer(dim=state["dim"], epochs=state["epochs"])
        f._model = _decode_embedding(state["model"], store)
        f._cache = {}
        return f
    if kind == "ValueLengthFeaturizer":
        f = ValueLengthFeaturizer()
        f._stats = {a: (float(m), float(s)) for a, (m, s) in state["stats"].items()}
        return f
    if kind == "TokenFrequencyFeaturizer":
        f = TokenFrequencyFeaturizer(alpha=state["alpha"])
        f._counts = {a: {k: int(v) for k, v in pairs} for a, pairs in state["counts"].items()}
        f._totals = {a: int(t) for a, t in state["totals"].items()}
        return f
    if kind == "ConstraintViolationFeaturizer":
        constraints = [decode_constraint(c) for c in state["constraints"]]
        f = ConstraintViolationFeaturizer(constraints)
        f._tuple_counts = store.get(state["tuple_counts"])
        indexes = []
        for index in state["fd_indexes"]:
            if index is None:
                indexes.append(None)
            else:
                indexes.append(
                    {
                        "join_attrs": list(index["join_attrs"]),
                        "residual_attr": index["residual_attr"],
                        "groups": {
                            tuple(k): {vk: int(vv) for vk, vv in pairs}
                            for k, pairs in index["groups"]
                        },
                    }
                )
        f._fd_indexes = indexes
        return f
    raise TypeError(f"unknown featurizer type {kind!r}")


def _encode_pipeline(pipeline: FeaturePipeline, store: ArrayStore) -> dict:
    return {
        "featurizers": [_encode_featurizer(f, store) for f in pipeline.featurizers],
        "numeric_mean": store.put(pipeline._numeric_mean),
        "numeric_std": store.put(pipeline._numeric_std),
    }


def _decode_pipeline(state: dict, store: ArrayStore) -> FeaturePipeline:
    pipeline = FeaturePipeline(
        [_decode_featurizer(f, store) for f in state["featurizers"]]
    )
    pipeline._numeric_mean = store.get(state["numeric_mean"])
    pipeline._numeric_std = store.get(state["numeric_std"])
    pipeline._fitted = True
    return pipeline


# --------------------------------------------------------------------- #
# Detector
# --------------------------------------------------------------------- #


#: Config fields that are live objects, not serialisable settings.
_UNSAVED_CONFIG_FIELDS = ("policy_override", "artifact_store")

#: Config fields of retired options that older saves still carry.
_RETIRED_CONFIG_FIELDS = ("backend", "compute_dtype")


def _encode_config(config: DetectorConfig) -> dict:
    state = {
        field: getattr(config, field)
        for field in config.__dataclass_fields__
        if field not in _UNSAVED_CONFIG_FIELDS
    }
    state["exclude_models"] = list(state["exclude_models"])
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
    ``compute`` table (never part of the fingerprint)."""
    from repro.spec import DetectorSpec

    return DetectorSpec.from_dict({k: v for k, v in state.items() if k != "compute"})


def save_detector(detector: HoloDetect, path: str | Path) -> None:
    """Serialise a fitted detector to ``path`` (a directory, created if
    needed)."""
    if detector.model is None or detector.pipeline is None:
        raise ValueError("cannot save an unfitted detector")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    store = ArrayStore()
    state = {
        "format_version": FORMAT_VERSION,
        "config": _encode_config(detector.config),
        "pipeline": _encode_pipeline(detector.pipeline, store),
        "model": {
            "numeric_dim": detector.model.numeric_dim,
            "branch_dims": detector.pipeline.branch_dims,
            "hidden_dim": detector.config.hidden_dim,
            "dropout": detector.config.dropout,
            "arrays": [store.put(a) for a in detector.model.state_arrays()],
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
    (path / "state.json").write_text(json.dumps(state), encoding="utf-8")
    np.savez_compressed(path / "arrays.npz", **store.arrays)
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
            if isinstance(fingerprint, str) and fingerprint:
                return fingerprint
        except (json.JSONDecodeError, OSError):
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
    state = json.loads((path / "state.json").read_text(encoding="utf-8"))
    if state["format_version"] != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {state['format_version']}")
    with np.load(path / "arrays.npz") as npz:
        store = ArrayStore({k: npz[k] for k in npz.files})

    detector = HoloDetect(_decode_config(state["config"]))
    if state.get("spec") is not None:
        detector.spec = _decode_spec(state["spec"])
    detector.pipeline = _decode_pipeline(state["pipeline"], store)
    # Re-attach the block cache the config asked for (caches are never
    # persisted — they rebuild from hits on the first prediction pass).
    detector.pipeline.cache = detector.cache
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
    detector.model.load_state_arrays([store.get(ref) for ref in model_state["arrays"]])
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
