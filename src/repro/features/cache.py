"""Opt-in, invalidation-aware cache of transformed feature blocks.

No detector builds one: a :class:`FeatureCache` pays off only when the
same cell batch is transformed again, which none of the default fit,
predict or rescore paths do.  A caller that does repeat batches assigns a
new instance to ``detector.pipeline.cache`` after fit and reads its
counters from ``detector.cache_stats``.  Each block is memoised under the
triple

    ``(featurizer fitted-state token, scoped fingerprint, batch digest)``

so identical work is done once:

- the **featurizer token** (``Featurizer.cache_token``) changes whenever a
  model is (re)fitted, so blocks from a stale fit can never be served;
- the **scoped fingerprint** (``Featurizer.scoped_fingerprint``) hashes
  exactly the part of the dataset the model's ``scope`` declares its
  transform depends on — the batch's columns for attribute-scoped models,
  the batch rows' contents for tuple-scoped models, the whole relation for
  dataset-scoped models.  In-place edits therefore invalidate only the
  blocks that could actually change: an edit to column A never evicts
  attribute-scoped blocks of column B, and tuple-scoped blocks of untouched
  rows survive edits elsewhere;
- the **batch digest** hashes the cells *and* their resolved (possibly
  overridden) values, so augmented variants of the same cells key
  separately.

Entries are bounded LRU; eviction and hit/miss counts are tracked in
:class:`CacheStats` (``cache.stats``).  Lookups are thread-safe, so one
pipeline and its cache may serve threads that featurise concurrently.

Cached arrays are returned by reference — treat them as read-only.  The
pipeline obeys this: standardisation and clipping allocate new arrays.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.features.base import CellBatch, Featurizer

#: A fully resolved cache key (featurizer token, scoped fingerprint, digest).
CacheKey = tuple[str, str, str]


@dataclass
class CacheStats:
    """Hit/miss/eviction accounting for one :class:`FeatureCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never used)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, int]:
        """JSON-able counter snapshot (includes the derived ``lookups``)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "lookups": self.lookups,
        }

    def summary(self) -> str:
        return (
            f"{self.hits} hits / {self.lookups} lookups "
            f"({self.hit_rate:.0%}), {self.evictions} evicted"
        )


class FeatureCache:
    """Bounded LRU cache of transformed feature blocks.

    ``max_entries`` bounds the entry count (an entry is one featurizer's
    block for one batch), evicting LRU-first.  All operations are
    thread-safe; a miss computes outside the lock so concurrent workers
    never serialise on featurization.
    """

    def __init__(self, max_entries: int = 1024):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._entries: OrderedDict[CacheKey, np.ndarray] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def key_for(featurizer: Featurizer, batch: CellBatch) -> CacheKey:
        return (featurizer.cache_token, featurizer.scoped_fingerprint(batch), batch.digest)

    def get_or_compute(self, featurizer: Featurizer, batch: CellBatch) -> np.ndarray:
        """The featurizer's block for ``batch``, computed at most once.

        The returned array is shared with the cache — do not mutate it.
        """
        key = self.key_for(featurizer, batch)
        with self._lock:
            block = self._entries.get(key)
            if block is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return block
        # Miss: compute without holding the lock (parallel misses allowed).
        block = featurizer.transform_batch(batch)
        with self._lock:
            self.stats.misses += 1
            if key not in self._entries:
                self._entries[key] = block
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
                    self.stats.evictions += 1
        return block

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(entries={len(self._entries)}/{self.max_entries}, "
            f"{self.stats.summary()})"
        )
