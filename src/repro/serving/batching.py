"""Request coalescing: merge concurrent small scoring calls into one predict.

Interactive clients send *small* requests — score these 40 cells, re-check
that column — and under concurrency the naive path runs one featurization
and one model forward per request.  The :class:`ScoreBatcher` instead
queues concurrent scoring calls **per batch key** (one tenant session, or
one hot detector), concatenates each batch's cell lists, runs a single
chunked ``_score_probabilities`` pass, and slices the result back to each
waiter.

A batch closes as soon as no further request can join it.  The server
counts the admitted connections still reading their request
(:meth:`ScoreBatcher.reading`), and a detect reaches :meth:`~ScoreBatcher.score`
without awaiting once its read ends, so those connections are exactly the
requests that could still join.  A batch of two or more therefore closes
the moment none is mid-read.  A lone request waits out the window: the
only request that could join it is one not yet admitted.  The window
bounds every wait.

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
import contextlib
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

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


@dataclass
class _Batch:
    """One key's queued requests and the timer that closes them at the window."""

    score_fn: Callable[[list], np.ndarray]
    timer: asyncio.TimerHandle
    entries: list[_Pending] = field(default_factory=list)

    @property
    def cells(self) -> int:
        return sum(len(p.cells) for p in self.entries)

    @property
    def waiting(self) -> int:
        return sum(not p.future.cancelled() for p in self.entries)


class ScoreBatcher:
    """Per-key coalescing front of a synchronous batch scoring function.

    ``window`` bounds how long any batch stays open, in seconds, and is how
    long a lone request waits for company.  A batch of two or more closes
    early, as soon as no connection the server has admitted is still
    reading its request (:meth:`reading`).  A batcher no server informs
    cannot tell whether anyone may still come, so its batches close at the
    window only.  ``max_cells`` bounds one merged pass; a batch flushes
    early when the next request would push it past the bound.  ``window=0``
    still coalesces whatever arrives in the same event-loop tick (the flush
    is scheduled, not inline), while keeping added latency at one tick.
    """

    def __init__(self, *, window: float = 0.002, max_cells: int = 4096):
        if not (math.isfinite(window) and window >= 0):
            raise ValueError(f"window must be finite and >= 0, got {window}")
        if max_cells < 1:
            raise ValueError(f"max_cells must be >= 1, got {max_cells}")
        self.window = window
        self.max_cells = max_cells
        self.stats = BatcherStats()
        self._batches: dict[object, _Batch] = {}
        self._reading: int | None = None

    @property
    def mid_read(self) -> int | None:
        """Requests the server is still reading (``None``: no server informs
        this batcher, so anyone may still come)."""
        return self._reading

    @contextlib.contextmanager
    def reading(self) -> Iterator[None]:
        """Count one admitted connection as mid-read for the block.

        The server wraps each request read in this, so however the read
        ends the count comes back down.  When it reaches zero, every batch
        of two or more closes one loop tick later: a detect whose read just
        ended queues first (it does not await before :meth:`score`) and
        joins the batch instead of starting a lone one.
        """
        self._reading = (self._reading or 0) + 1
        try:
            yield
        finally:
            self._reading -= 1
            if self._reading == 0 and self._batches:
                asyncio.get_running_loop().call_soon(self._close_ready)

    async def score(
        self,
        key: object,
        score_fn: Callable[[list], np.ndarray],
        cells: Sequence,
    ) -> np.ndarray:
        """Queue ``cells`` under ``key``; returns their probabilities.

        All queued calls sharing ``key`` before the batch closes are scored
        by a single ``score_fn(merged_cells)`` invocation.  ``score_fn``
        must be position-stable: output[i] corresponds to merged_cells[i].
        """
        self.stats.requests += 1
        if not cells:
            return np.zeros(0)
        loop = asyncio.get_running_loop()
        batch = self._batches.get(key)
        if batch is not None and batch.cells + len(cells) > self.max_cells:
            # Overflow: flush what is queued now; this request starts the
            # next batch so no merged pass exceeds the bound.
            self._flush(key, score_fn)
            batch = None
        if batch is None:
            timer = loop.call_later(self.window, self._flush, key, score_fn)
            batch = self._batches[key] = _Batch(score_fn, timer)
        entry = _Pending(list(cells), loop.create_future())
        batch.entries.append(entry)
        if self._reading == 0 and batch.waiting >= 2:
            # Nobody mid-read can join any more: close now, not at the window.
            self._flush(key, score_fn)
        return await entry.future

    def _close_ready(self) -> None:
        """Flush every batch of two or more, unless a read began meanwhile."""
        if self._reading:
            return
        for key, batch in list(self._batches.items()):
            if batch.waiting >= 2:
                self._flush(key, batch.score_fn)

    def _flush(self, key: object, score_fn: Callable[[list], np.ndarray]) -> None:
        batch = self._batches.pop(key, None)
        if batch is None:
            return
        batch.timer.cancel()
        waiters = [p for p in batch.entries if not p.future.cancelled()]
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
        self._flush(key, score_fn)

    async def drain(self) -> None:
        """Cancel everything pending (shutdown path)."""
        for batch in self._batches.values():
            batch.timer.cancel()
            for entry in batch.entries:
                if not entry.future.done():
                    entry.future.cancel()
        self._batches.clear()
