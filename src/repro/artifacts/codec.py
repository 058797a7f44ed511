"""Payload encode/decode for the two artifact granularities.

- **Embedding artifacts** — one trained
  :class:`~repro.embeddings.fasttext.FastTextEmbedding` (the per-column
  char/word models, the tuple and tuple-value models).  The payload is the
  embedding's own :meth:`~repro.embeddings.fasttext.FastTextEmbedding.to_state`.
- **Featurizer-state artifacts** — a whole fitted featurizer: its class
  name plus its own :meth:`~repro.features.base.Featurizer.to_state`, the
  same entry a saved detector's pipeline holds (:mod:`repro.persistence`).

Arrays stay inline in both payloads; the store places them through
:func:`~repro.artifacts.store.flatten_arrays`, the array layer saved
detectors use too.  Decoding copies arrays out of the (shared, read-only)
payload, so a later in-place refit of the rebuilt model can never corrupt
the store.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from repro.artifacts.keys import artifact_key, training_seed
from repro.embeddings.fasttext import FastTextEmbedding


def fit_embedding_artifact(
    store,
    kind: str,
    scope: str,
    config: Mapping[str, object],
    train: Callable[[int], FastTextEmbedding],
    meta: Mapping[str, object] | None = None,
) -> tuple[str, FastTextEmbedding]:
    """The one store-consult discipline for every embedding-backed fit.

    Derives the artifact key, serves the trained model from ``store`` when
    possible (a payload that fails to decode is treated as a miss), and
    otherwise calls ``train(seed)`` with the content-derived training seed
    and stores the result.  Returns ``(key, model)``; ``store`` may be
    ``None`` (train only — the key is still the seed source).
    """
    key = artifact_key(kind, scope, config)
    if store is not None:
        payload = store.get(key)
        if payload is not None:
            try:
                return key, FastTextEmbedding.from_state(
                    {
                        **payload,
                        "in_table": np.array(payload["in_table"], dtype=np.float64),
                        "out_table": np.array(payload["out_table"], dtype=np.float64),
                    }
                )
            except Exception:
                pass  # malformed payload: retrain (and overwrite) below
    model = train(training_seed(key))
    if store is not None:
        store.put(key, model.to_state(), kind=kind, meta=meta)
    return key, model


def featurizer_state(featurizer) -> dict:
    """A fitted featurizer's saved form: ``{"type": <class name>, **to_state()}``."""
    return {"type": type(featurizer).__name__, **featurizer.to_state()}


def featurizer_payload(featurizer) -> dict | None:
    """Whole-state payload of a fitted featurizer, or ``None`` when it has
    no saved state (custom components simply refit)."""
    try:
        return {"state": featurizer_state(featurizer)}
    except NotImplementedError:
        return None


def load_featurizer_payload(featurizer, payload: Mapping[str, object]) -> bool:
    """Load a :func:`featurizer_payload` into ``featurizer`` in place.

    False — a miss, and the caller refits — when the payload names another
    type or fails to decode.
    """
    try:
        state = payload["state"]
        if state["type"] != type(featurizer).__name__:
            return False
        featurizer.load_state(state)
    except Exception:
        return False
    return True
