"""The store-or-build seam and the payload codecs of fitted artifacts.

:func:`store_or_build` is the one place the fit path touches an
:class:`~repro.artifacts.store.ArtifactStore`: every store-backed fit —
whole featurizer states, per-column and relation-wide embeddings — passes
it a key, a ``build`` callable and an ``encode``/``decode`` pair.  The
payload codecs:

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

from typing import Callable, Mapping, TypeVar

import numpy as np

from repro.embeddings.fasttext import FastTextEmbedding

T = TypeVar("T")


def store_or_build(
    store,
    key: str,
    kind: str,
    build: Callable[[], T],
    encode: Callable[[T], dict | None],
    decode: Callable[[Mapping[str, object]], T],
    meta: Mapping[str, object] | None = None,
) -> T:
    """The value stored under ``key``, or a freshly built one.

    A stored payload is returned through ``decode``.  An absent payload, or
    one that fails to decode, is a miss: ``build()`` runs and its
    ``encode``-d form is stored under ``key`` (overwriting a bad payload)
    unless ``encode`` returns ``None``.  ``store`` may be ``None`` (build
    only); ``kind`` and ``meta`` go to the store's manifest.
    """
    if store is not None:
        payload = store.get(key)
        if payload is not None:
            try:
                return decode(payload)
            except Exception:
                pass  # a bad artifact must never break a fit: rebuild below
    value = build()
    if store is not None:
        payload = encode(value)
        if payload is not None:
            store.put(key, payload, kind=kind, meta=meta)
    return value


def decode_embedding(payload: Mapping[str, object]) -> FastTextEmbedding:
    """A trained embedding rebuilt from its stored ``to_state`` payload."""
    return FastTextEmbedding.from_state(
        {
            **payload,
            "in_table": np.array(payload["in_table"], dtype=np.float64),
            "out_table": np.array(payload["out_table"], dtype=np.float64),
        }
    )


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


def load_featurizer_payload(featurizer, payload: Mapping[str, object]):
    """Load a :func:`featurizer_payload` into ``featurizer`` in place and
    return it; raises when the payload names another type or fails to
    decode."""
    state = payload["state"]
    if state["type"] != type(featurizer).__name__:
        raise ValueError(f"payload holds a {state['type']!r} state")
    featurizer.load_state(state)
    return featurizer
