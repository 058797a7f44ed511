"""Request coalescing: merge concurrent small scoring calls into one predict.

Interactive clients send *small* requests — score these 40 cells, re-check
that column — and under concurrency the naive path runs one featurization
and one model forward per request.  The :class:`ScoreBatcher` instead
collects the scoring calls that arrive within one short window **per batch
key** (one tenant session, or one hot detector), concatenates their cell
lists, runs a single chunked ``_score_probabilities`` pass, and slices the
result back to each waiter.

Correctness rests on a documented detector invariant: per-cell outputs are
independent of chunk composition (each chunk is forwarded padded to a
multiple of ``SCORE_QUANTUM`` rows, a row count at which BLAS gives every
row the bits it has in any other such forward — see
``HoloDetect._score_features``).  Merging N requests into one pass is
therefore **bit-identical** to running them sequentially, which the
concurrency suite and ``bench_serving.py`` assert.

The batcher is asyncio-native and single-loop: all bookkeeping runs on the
event loop, so no locks are needed.  A scoring failure is delivered to every
waiter of that batch as the original exception — one poisoned request never
wedges its batch-mates' futures.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


@dataclass
class BatcherStats:
    """Coalescing accounting: how much concurrency actually merged."""

    requests: int = 0
    batches: int = 0
    coalesced_requests: int = 0
    max_batch_cells: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "requests": self.requests,
            "batches": self.batches,
            "coalesced_requests": self.coalesced_requests,
            "max_batch_cells": self.max_batch_cells,
        }


@dataclass
class _Pending:
    cells: list
    future: "asyncio.Future[np.ndarray]"


class ScoreBatcher:
    """Per-key coalescing front of a synchronous batch scoring function.

    ``window`` is the collection delay in seconds: the first request for a
    key opens the window, every request landing inside it joins the batch.
    ``max_cells`` bounds one merged pass; a batch flushes early when the
    next request would push it past the bound.  ``window=0`` still
    coalesces whatever arrives in the same event-loop tick (the flush is
    scheduled, not inline), while keeping added latency at one tick.
    """

    def __init__(self, *, window: float = 0.002, max_cells: int = 4096):
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        if max_cells < 1:
            raise ValueError(f"max_cells must be >= 1, got {max_cells}")
        self.window = window
        self.max_cells = max_cells
        self.stats = BatcherStats()
        self._pending: dict[object, list[_Pending]] = {}
        self._flushers: dict[object, asyncio.Task] = {}

    async def score(
        self,
        key: object,
        score_fn: Callable[[list], np.ndarray],
        cells: Sequence,
    ) -> np.ndarray:
        """Queue ``cells`` under ``key``; returns their probabilities.

        All queued calls sharing ``key`` before the window closes are scored
        by a single ``score_fn(merged_cells)`` invocation.  ``score_fn``
        must be position-stable: output[i] corresponds to merged_cells[i].
        """
        self.stats.requests += 1
        if not cells:
            return np.zeros(0)
        loop = asyncio.get_running_loop()
        queue = self._pending.setdefault(key, [])
        queued_cells = sum(len(p.cells) for p in queue)
        if queue and queued_cells + len(cells) > self.max_cells:
            # Overflow: flush what is queued now; this request starts the
            # next batch so no merged pass exceeds the bound.
            self._flush(key, score_fn)
            queue = self._pending.setdefault(key, [])
        entry = _Pending(list(cells), loop.create_future())
        queue.append(entry)
        if key not in self._flushers:
            self._flushers[key] = loop.create_task(self._flush_later(key, score_fn))
        return await entry.future

    async def _flush_later(
        self, key: object, score_fn: Callable[[list], np.ndarray]
    ) -> None:
        if self.window > 0:
            await asyncio.sleep(self.window)
        else:
            # One explicit tick: lets same-tick submitters join the batch.
            await asyncio.sleep(0)
        self._flush(key, score_fn)

    def _flush(self, key: object, score_fn: Callable[[list], np.ndarray]) -> None:
        queue = self._pending.pop(key, [])
        flusher = self._flushers.pop(key, None)
        if flusher is not None and not flusher.done():
            current = None
            try:
                current = asyncio.current_task()
            except RuntimeError:  # pragma: no cover - no running loop
                pass
            if flusher is not current:
                flusher.cancel()
        waiters = [p for p in queue if not p.future.cancelled()]
        if not waiters:
            return
        merged: list = []
        for pending in waiters:
            merged.extend(pending.cells)
        self.stats.batches += 1
        self.stats.coalesced_requests += len(waiters) - 1
        self.stats.max_batch_cells = max(self.stats.max_batch_cells, len(merged))
        try:
            probabilities = np.asarray(score_fn(merged))
        except Exception as exc:  # noqa: BLE001 - delivered to every waiter
            for pending in waiters:
                if not pending.future.done():
                    pending.future.set_exception(exc)
            return
        if probabilities.shape[0] != len(merged):
            error = RuntimeError(
                f"score_fn returned {probabilities.shape[0]} probabilities "
                f"for {len(merged)} cells"
            )
            for pending in waiters:
                if not pending.future.done():
                    pending.future.set_exception(error)
            return
        offset = 0
        for pending in waiters:
            size = len(pending.cells)
            if not pending.future.done():
                pending.future.set_result(probabilities[offset : offset + size])
            offset += size

    def flush_key(self, key: object, score_fn: Callable[[list], np.ndarray]) -> None:
        """Synchronously score anything pending under ``key``.

        An ordering barrier for mutations: a rescore handler flushes the
        tenant's pending detect batch *before* applying edits, so every
        request queued before the mutation observes the pre-edit relation —
        the same order a sequential client would see.
        """
        if key in self._pending:
            self._flush(key, score_fn)

    async def drain(self) -> None:
        """Flush everything pending (shutdown path)."""
        for task in list(self._flushers.values()):
            task.cancel()
        pending = list(self._pending)
        for key in pending:
            queue = self._pending.pop(key, [])
            for entry in queue:
                if not entry.future.done():
                    entry.future.cancel()
        self._flushers.clear()
