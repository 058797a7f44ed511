"""Artifact key and training-seed derivation.

An artifact key is the SHA-256 of the canonical JSON of

    (schema version, artifact kind, scoped data fingerprint, component
    config, seed material)

so the key — like the scenario fingerprints of
:mod:`repro.evaluation.matrix` — is stable under dict key reordering,
whitespace, processes, and sessions.  The *scope* is the narrowest
fingerprint of the data a fit reads: a per-column embedding keys on its
column's content fingerprint, a relation-wide model on the whole dataset
fingerprint, so an edit to column A never invalidates column B's artifact.
No key is scoped to a row shard: both dataset backings compose the same
column and relation fingerprints, so a fit over a sharded relation derives
exactly the keys of its in-memory twin.

Training seeds are derived *from the key itself* (:func:`training_seed`):
an embedding trained for a given (corpus, config) is seeded by the content
it trains on, which is what makes a fitted artifact a pure function of its
key — and hence shareable across detector seeds, label budgets, and trials
of a sweep.  This is a deliberate, versioned change from the pre-artifact
behaviour where embedding training consumed the detector's shared RNG
stream (see "Fit-path artifacts" in ``docs/architecture.md``).
"""

from __future__ import annotations

import hashlib
from typing import Mapping

from repro.utils.specfile import canonical_json

#: Key format version; bump when the derivation changes meaning (a bump
#: invalidates every existing store, which is exactly the point).
ARTIFACT_SCHEMA = "repro.artifact/v1"


def artifact_key(
    kind: str,
    scope: str,
    config: Mapping[str, object] | None = None,
    seed: int | None = None,
) -> str:
    """The content key of one fitted artifact.

    ``kind`` tags the artifact family (``"embedding/char"``,
    ``"featurizer/cooccurrence"``, ...), ``scope`` is the scoped content
    fingerprint of the data the fit reads, ``config`` the component's
    JSON-able configuration, and ``seed`` optional extra seed material for
    components whose output is not purely content-determined.
    """
    payload = {
        "schema": ARTIFACT_SCHEMA,
        "kind": kind,
        "scope": scope,
        "config": dict(config or {}),
        "seed": seed,
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def training_seed(key: str) -> int:
    """A deterministic 63-bit RNG seed derived from an artifact key.

    Components with internal randomness (embedding init, negative sampling,
    epoch shuffling) train from a generator seeded here, so the fitted
    artifact is a pure function of its key: any process that derives the
    same key trains — or reuses — bit-identical weights.
    """
    return int(key[:16], 16) % (2**63)

