"""Content-addressed store of fitted artifacts (trained embeddings, fitted
featurizer states).

The fit path of the detector is dominated by work that is a *pure function*
of its inputs: a FastText embedding is determined by (corpus content,
embedding config), a co-occurrence table by (relation content).  The
artifact store memoises those fits under a SHA-256 content key, served from
an in-process memory tier backed by an optional on-disk object directory,
so a warm ``fit()`` skips embedding training entirely and parallel sweep
workers share one fit per (dataset, budget-independent component) instead
of one per scenario.

Modules:

- :mod:`repro.artifacts.keys` — key derivation (canonical-JSON SHA-256 over
  kind + scoped data fingerprint + component config) and the content-derived
  training seeds that make fitted artifacts reusable across detector seeds;
- :mod:`repro.artifacts.store` — :class:`ArtifactStore` (memory tier +
  append/latest-wins disk objects, corrupt-tolerant), its statistics, and
  ``flatten_arrays``/``restore_arrays``, the one array layer of artifact
  objects and saved detectors;
- :mod:`repro.artifacts.codec` — ``store_or_build``, the one seam through
  which every fit consults the store, and the payload encode/decode for
  embeddings and whole featurizer states (the components' own
  ``to_state`` output);
- :mod:`repro.artifacts.runtime` — the ambient store, per thread and per
  asyncio task: the one route by which a store reaches a fit.  A detector
  installs its own store around its fit; a sweep installs one for every
  scenario it runs.
"""

from repro.artifacts.keys import ARTIFACT_SCHEMA, artifact_key, training_seed
from repro.artifacts.runtime import get_default_store, set_default_store, use_store
from repro.artifacts.store import ArtifactStats, ArtifactStore

__all__ = [
    "ARTIFACT_SCHEMA",
    "ArtifactStats",
    "ArtifactStore",
    "artifact_key",
    "get_default_store",
    "set_default_store",
    "training_seed",
    "use_store",
]
