"""ScoreBatcher unit tests: when a coalescing batch closes, and what its
waiters receive.

Plain asyncio, no server.  Every batcher but the one whose window is under
test has a 5 s window, so a batch that closes during a test closed for a
reason other than time, and a batch that must stay open is seen open long
before its window could end.  A "request" scores a list of integer cells;
the scorer returns each cell's value as its probability and records every
merged pass, so a waiter's slice and the pass composition are both
checkable.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.serving.batching import ScoreBatcher

WINDOW = 5.0
KEY = ("tenant", "acme")


class Scorer:
    """A position-stable ``score_fn`` recording each merged pass."""

    def __init__(self) -> None:
        self.passes: list[list[int]] = []

    def __call__(self, cells: list) -> np.ndarray:
        self.passes.append(list(cells))
        return np.asarray(cells, dtype=float)


async def ticks(n: int = 10) -> None:
    """Let the loop run ``n`` iterations."""
    for _ in range(n):
        await asyncio.sleep(0)


def informed(window: float = WINDOW, **kwargs) -> ScoreBatcher:
    """A batcher a server has informed, with no request mid-read."""
    batcher = ScoreBatcher(window=window, **kwargs)
    with batcher.reading():
        pass
    assert batcher.mid_read == 0
    return batcher


async def read_then_score(batcher, read_done, score_fn, cells):
    """One connection as the server handles it: mid-read until
    ``read_done`` is set, then a detect queued without an await between."""
    with batcher.reading():
        await read_done.wait()
    return await batcher.score(KEY, score_fn, cells)


def values(result) -> list[float]:
    return [float(p) for p in result]


class TestWhenABatchCloses:
    def test_lone_request_waits_out_the_window(self):
        """Nothing mid-read, but a lone request stays queued for company
        until its window ends (the one test with a short window)."""
        window = 0.05

        async def main():
            batcher, scorer = informed(window), Scorer()
            loop = asyncio.get_running_loop()
            started = loop.time()
            lone = asyncio.create_task(batcher.score(KEY, scorer, [1, 2]))
            await ticks()
            assert not lone.done() and scorer.passes == []
            assert values(await lone) == [1.0, 2.0]
            return loop.time() - started, scorer.passes

        waited, passes = asyncio.run(main())
        assert waited >= window * 0.9
        assert passes == [[1, 2]]

    def test_second_request_closes_the_batch_when_nothing_is_mid_read(self):
        async def main():
            batcher, scorer = informed(), Scorer()
            first = asyncio.create_task(batcher.score(KEY, scorer, [1, 2]))
            await ticks()
            assert not first.done()
            second = asyncio.create_task(batcher.score(KEY, scorer, [3]))
            await ticks()
            assert first.done() and second.done()
            answers = values(first.result()), values(second.result())
            return answers, scorer.passes, batcher.stats

        (first, second), passes, stats = asyncio.run(main())
        assert (first, second) == ([1.0, 2.0], [3.0])
        assert passes == [[1, 2, 3]]
        assert (stats.batches, stats.coalesced_requests) == (1, 1)

    def test_batch_waits_for_a_mid_read_request_and_closes_once_it_queues(self):
        async def main():
            batcher, scorer = informed(), Scorer()
            read_done = asyncio.Event()
            late = asyncio.create_task(read_then_score(batcher, read_done, scorer, [5]))
            await ticks()
            assert batcher.mid_read == 1
            early = [
                asyncio.create_task(batcher.score(KEY, scorer, cells))
                for cells in ([1], [2, 3])
            ]
            await ticks()
            assert not any(task.done() for task in early)
            assert scorer.passes == []
            read_done.set()
            await ticks()
            assert all(task.done() for task in (*early, late))
            results = [values(task.result()) for task in (*early, late)]
            return results, scorer.passes, batcher.mid_read

        results, passes, mid_read = asyncio.run(main())
        assert results == [[1.0], [2.0, 3.0], [5.0]]
        assert passes == [[1, 2, 3, 5]]
        assert mid_read == 0

    def test_read_that_queues_nothing_closes_the_batch_on_the_next_tick(self):
        """A connection that ends its read without queuing a detect (a
        health check, a bad request) releases the batch waiting for it."""

        async def main():
            batcher, scorer = informed(), Scorer()
            read = batcher.reading()
            read.__enter__()
            waiting = [
                asyncio.create_task(batcher.score(KEY, scorer, [k]))
                for k in (1, 2)
            ]
            await ticks()
            assert scorer.passes == []
            read.__exit__(None, None, None)
            await ticks(2)
            assert all(task.done() for task in waiting)
            return scorer.passes

        assert asyncio.run(main()) == [[1, 2]]

    def test_end_of_a_read_leaves_a_lone_request_waiting(self):
        async def main():
            batcher, scorer = informed(), Scorer()
            read = batcher.reading()
            read.__enter__()
            lone = asyncio.create_task(batcher.score(KEY, scorer, [1]))
            await ticks()
            read.__exit__(None, None, None)
            await ticks()
            assert not lone.done() and scorer.passes == []
            batcher.flush_key(KEY, scorer)
            return values(await lone)

        assert asyncio.run(main()) == [1.0]

    def test_batcher_no_server_informs_keeps_the_window(self):
        """Without a server counting reads, anyone may still come: two
        queued requests stay open until the window (or a barrier)."""

        async def main():
            batcher, scorer = ScoreBatcher(window=WINDOW), Scorer()
            assert batcher.mid_read is None
            waiting = [
                asyncio.create_task(batcher.score(KEY, scorer, [k]))
                for k in (1, 2, 3)
            ]
            await ticks()
            assert not any(task.done() for task in waiting)
            assert scorer.passes == []
            batcher.flush_key(KEY, scorer)
            return [values(r) for r in await asyncio.gather(*waiting)], scorer.passes

        results, passes = asyncio.run(main())
        assert results == [[1.0], [2.0], [3.0]]
        assert passes == [[1, 2, 3]]

    def test_reading_count_comes_back_down_when_the_read_raises(self):
        batcher = informed()
        with pytest.raises(ConnectionResetError):
            with batcher.reading():
                raise ConnectionResetError("client vanished mid-body")
        assert batcher.mid_read == 0


class TestWhatWaitersReceive:
    def test_max_cells_overflow_starts_a_new_batch(self):
        async def main():
            batcher, scorer = ScoreBatcher(window=WINDOW, max_cells=4), Scorer()
            first = asyncio.create_task(batcher.score(KEY, scorer, [1, 2, 3]))
            await ticks()
            second = asyncio.create_task(batcher.score(KEY, scorer, [4, 5]))
            await ticks()
            # The queued batch flushed to keep the merged pass within 4
            # cells; the overflowing request waits in a batch of its own.
            assert first.done() and not second.done()
            assert scorer.passes == [[1, 2, 3]]
            batcher.flush_key(KEY, scorer)
            return values(await first), values(await second), scorer.passes

        first, second, passes = asyncio.run(main())
        assert (first, second) == ([1.0, 2.0, 3.0], [4.0, 5.0])
        assert passes == [[1, 2, 3], [4, 5]]

    @pytest.mark.parametrize("failure", ["raises", "wrong-length"])
    def test_a_failed_pass_reaches_every_waiter(self, failure):
        def broken(cells):
            if failure == "raises":
                raise ValueError("poisoned batch")
            return np.zeros(len(cells) - 1)

        async def main():
            batcher = informed()
            first = asyncio.create_task(batcher.score(KEY, broken, [1]))
            await ticks()
            second = asyncio.create_task(batcher.score(KEY, broken, [2]))
            return await asyncio.gather(first, second, return_exceptions=True)

        outcomes = asyncio.run(main())
        expected = ValueError if failure == "raises" else RuntimeError
        assert all(isinstance(outcome, expected) for outcome in outcomes)
        assert outcomes[0] is outcomes[1]

    def test_cancelled_waiter_is_dropped_from_the_pass(self):
        async def main():
            batcher, scorer = informed(), Scorer()
            gone = asyncio.create_task(batcher.score(KEY, scorer, [1]))
            await ticks()
            gone.cancel()
            await ticks()
            # The cancelled waiter is no company: the next request is lone.
            kept = asyncio.create_task(batcher.score(KEY, scorer, [2, 3]))
            await ticks()
            assert not kept.done() and scorer.passes == []
            batcher.flush_key(KEY, scorer)
            return gone.cancelled(), values(await kept), scorer.passes

        cancelled, kept, passes = asyncio.run(main())
        assert cancelled
        assert kept == [2.0, 3.0]
        assert passes == [[2, 3]]

    def test_flush_key_is_a_synchronous_barrier(self):
        """A rescore flushes its tenant's batch before applying edits: every
        request queued before it scores against the pre-edit state."""
        state = {"scale": 1.0}

        def score(cells):
            return np.asarray(cells, dtype=float) * state["scale"]

        async def main():
            batcher = ScoreBatcher(window=WINDOW)
            queued = [
                asyncio.create_task(batcher.score(KEY, score, [k])) for k in (1, 2)
            ]
            await ticks()
            batcher.flush_key(KEY, score)
            state["scale"] = 10.0  # the edit, with no await in between
            batcher.flush_key(KEY, score)  # nothing pending: a no-op
            results = await asyncio.gather(*queued)
            return [values(result) for result in results], batcher.stats.batches

        results, batches = asyncio.run(main())
        assert results == [[1.0], [2.0]]
        assert batches == 1

    def test_drain_cancels_every_pending_waiter(self):
        async def main():
            batcher, scorer = ScoreBatcher(window=WINDOW), Scorer()
            waiting = [
                asyncio.create_task(batcher.score(key, scorer, [1]))
                for key in (KEY, ("tenant", "other"))
            ]
            await ticks()
            await batcher.drain()
            outcomes = await asyncio.gather(*waiting, return_exceptions=True)
            batcher.flush_key(KEY, scorer)  # nothing left to score
            return outcomes, scorer.passes

        outcomes, passes = asyncio.run(main())
        assert all(isinstance(o, asyncio.CancelledError) for o in outcomes)
        assert passes == []

    def test_empty_request_scores_nothing(self):
        batcher, scorer = informed(), Scorer()
        result = asyncio.run(batcher.score(KEY, scorer, []))
        assert result.shape == (0,) and scorer.passes == []
