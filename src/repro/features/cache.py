"""The one feature reuse layer: per-model transform memos with hit counts.

A featurizer that computes from a fitted model and cell contents keeps
what it computed across calls in a :class:`FeatureCache`, built by
:meth:`~repro.features.base.Featurizer._memo` for one fitted object (a
column's model, the relation-wide embedding, the co-occurrence tables).
A memo is a ``dict`` keyed by contents (a value, a row's values), never by
row index, so it stays correct across edits and relations.  It belongs to
the fitted object it was built for: a refit or a ``load_state`` replaces
it with a new, empty one, whose counts start at zero.

Each memo counts its reuse in :class:`CacheStats` (``memo.stats``).  A hit
costs exactly a plain ``dict.get``: a transform counts a miss in the
branch that computes the entry, and adds its lookups in bulk once per
call.  The counters are unlocked integer additions, exact on one thread;
threads that transform through one memo at once may lose updates, so the
counts may then undercount, while the outputs are unchanged.

A memo is emptied once a call finds :data:`MEMO_MAX_ENTRIES` entries in
it (:meth:`FeatureCache.make_room`), so it holds at most that many plus
the entries one call adds; the entries dropped count as evictions.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Entries at which a memo is emptied before a call.
MEMO_MAX_ENTRIES = 8192


@dataclass
class CacheStats:
    """Lookup, miss and cap-eviction counts of one :class:`FeatureCache`."""

    lookups: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hits(self) -> int:
        return self.lookups - self.misses


class FeatureCache(dict):
    """One fitted model's transform memo: a ``dict`` plus its ``stats``.

    Callers read it with ``get`` and use the entry they computed on a miss,
    since another thread may empty it between two lookups.
    """

    __slots__ = ("stats",)

    def __init__(self) -> None:
        super().__init__()
        self.stats = CacheStats()

    def make_room(self) -> None:
        """Empty the memo if it holds :data:`MEMO_MAX_ENTRIES` entries."""
        if len(self) >= MEMO_MAX_ENTRIES:
            self.stats.evictions += len(self)
            self.clear()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(entries={len(self)}, {self.stats})"
