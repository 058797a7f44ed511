"""Keyed, invalidation-aware cache of transformed feature blocks.

Featurization dominates runtime at scale: every augmentation epoch, repeated
evaluation run, and full-dataset prediction pass re-derives the same blocks
from the same fitted models.  :class:`FeatureCache` memoises each block
under the triple

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
from dataclasses import dataclass, field

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
    invalidations: int = 0
    #: Subset of ``evictions`` forced by the ``max_bytes`` bound (the rest
    #: were forced by ``max_entries``).
    byte_evictions: int = 0
    #: Blocks never inserted because they alone exceed ``max_bytes``.
    oversize_rejections: int = 0

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
            "byte_evictions": self.byte_evictions,
            "oversize_rejections": self.oversize_rejections,
            "invalidations": self.invalidations,
            "lookups": self.lookups,
        }

    def summary(self) -> str:
        text = (
            f"{self.hits} hits / {self.lookups} lookups "
            f"({self.hit_rate:.0%}), {self.evictions} evicted, "
            f"{self.invalidations} invalidated"
        )
        if self.byte_evictions or self.oversize_rejections:
            text += (
                f" ({self.byte_evictions} by bytes, "
                f"{self.oversize_rejections} oversize)"
            )
        return text


@dataclass
class _Entry:
    block: np.ndarray
    nbytes: int = field(init=False)

    def __post_init__(self) -> None:
        self.nbytes = int(self.block.nbytes)


class FeatureCache:
    """Bounded LRU cache of transformed feature blocks.

    ``max_entries`` bounds the entry count (an entry is one featurizer's
    block for one batch); ``max_bytes``, when set, additionally bounds the
    total bytes held by cached blocks — out-of-core relations can stream
    millions of cells through prediction, and an entry-count bound alone
    lets the cache grow with block width.  Either bound evicts LRU-first.
    A single block larger than ``max_bytes`` is returned to the caller but
    never inserted.  All operations are thread-safe; a miss computes
    outside the lock so concurrent workers never serialise on featurization.
    """

    def __init__(self, max_entries: int = 1024, max_bytes: int | None = None):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive when set")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        self._entries: OrderedDict[CacheKey, _Entry] = OrderedDict()
        self._nbytes = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Total bytes held by cached blocks."""
        with self._lock:
            return self._nbytes

    @staticmethod
    def key_for(featurizer: Featurizer, batch: CellBatch) -> CacheKey:
        return (featurizer.cache_token, featurizer.scoped_fingerprint(batch), batch.digest)

    def get_or_compute(self, featurizer: Featurizer, batch: CellBatch) -> np.ndarray:
        """The featurizer's block for ``batch``, computed at most once.

        The returned array is shared with the cache — do not mutate it.
        """
        key = self.key_for(featurizer, batch)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return entry.block
        # Miss: compute without holding the lock (parallel misses allowed).
        block = featurizer.transform_batch(batch)
        with self._lock:
            self.stats.misses += 1
            if key not in self._entries:
                entry = _Entry(block)
                if self.max_bytes is not None and entry.nbytes > self.max_bytes:
                    self.stats.oversize_rejections += 1
                    return block
                self._entries[key] = entry
                self._nbytes += entry.nbytes
                while len(self._entries) > self.max_entries:
                    _, evicted = self._entries.popitem(last=False)
                    self._nbytes -= evicted.nbytes
                    self.stats.evictions += 1
                while self.max_bytes is not None and self._nbytes > self.max_bytes:
                    _, evicted = self._entries.popitem(last=False)
                    self._nbytes -= evicted.nbytes
                    self.stats.evictions += 1
                    self.stats.byte_evictions += 1
        return block

    def invalidate_scope(self, fingerprint: str) -> int:
        """Drop every block keyed under the given scoped fingerprint.

        ``fingerprint`` may be any scoped fingerprint — a whole-relation
        fingerprint, a batch columns fingerprint, or a batch rows
        fingerprint.  Normally unnecessary — a mutated dataset produces new
        scoped fingerprints and old entries age out — but lets callers
        reclaim memory eagerly when a relation is known to be gone.  Returns
        the number of entries dropped.
        """
        with self._lock:
            stale = [k for k in self._entries if k[1] == fingerprint]
            for k in stale:
                self._nbytes -= self._entries[k].nbytes
                del self._entries[k]
            self.stats.invalidations += len(stale)
            return len(stale)

    def clear(self) -> None:
        """Drop all entries (statistics are preserved)."""
        with self._lock:
            self.stats.invalidations += len(self._entries)
            self._entries.clear()
            self._nbytes = 0

    def __repr__(self) -> str:
        return (
            f"FeatureCache(entries={len(self._entries)}/{self.max_entries}, "
            f"{self.stats.summary()})"
        )
