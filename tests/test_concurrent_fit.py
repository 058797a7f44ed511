"""The two-thread featurizer fit (:meth:`FeaturePipeline.fit`).

A fit on :func:`~repro.features.pipeline.fit_workers` threads must be the
one-at-a-time fit, bit for bit: every fitted table, every artifact key in
order, every probability, and the same store traffic.  The worker count
is patched here (there is no setting for it), so these tests run two fit
threads whatever the host's CPU count.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.artifacts import ArtifactStore, get_default_store, use_store
from repro.artifacts.codec import featurizer_state
from repro.artifacts.store import flatten_arrays
from repro.core.detector import DetectorConfig, HoloDetect
from repro.data import load_dataset
from repro.dataset import ShardedDataset
from repro.evaluation.splits import make_split
from repro.features import pipeline as pipeline_module
from repro.features.attribute import WordEmbeddingFeaturizer
from repro.features.base import FeatureContext, Featurizer
from repro.features.pipeline import FeaturePipeline
from repro.features.tuple_level import CooccurrenceFeaturizer, TupleEmbeddingFeaturizer

TINY = dict(epochs=2, embedding_dim=4, min_training_steps=20, seed=3)


@pytest.fixture(scope="module")
def bundle():
    return load_dataset("hospital", num_rows=24, seed=2)


@pytest.fixture(scope="module")
def split(bundle):
    return make_split(bundle, 0.2, rng=0)


def workers(monkeypatch, count: int) -> None:
    monkeypatch.setattr(pipeline_module, "fit_workers", lambda: count)


def fitted_state(pipeline: FeaturePipeline) -> list:
    """Every featurizer's saved state: its JSON text and the bits of each
    of its arrays (embedding tables, counts)."""
    states = []
    for featurizer in pipeline.featurizers:
        arrays: dict[str, np.ndarray] = {}
        text = flatten_arrays(featurizer_state(featurizer), arrays, sort_keys=True)
        states.append(
            (text, {ref: (a.dtype.str, a.shape, a.tobytes()) for ref, a in arrays.items()})
        )
    return states


def fit_detector(relation, bundle, split, store=None):
    detector = HoloDetect(DetectorConfig(**TINY)).use_artifacts(store)
    detector.fit(relation, split.training, bundle.constraints)
    return detector


def outcome(detector: HoloDetect, relation) -> tuple:
    """What a fit must reproduce: keys in order, fitted state, and the
    bits of every cell's probability."""
    probabilities = detector.predict(list(relation.cells())).probabilities
    return (
        list(detector.artifact_keys.items()),
        fitted_state(detector.pipeline),
        probabilities.tobytes(),
    )


@pytest.fixture(scope="module")
def reference(bundle, split):
    """The outcome of the one-at-a-time fit, with no store."""
    with pytest.MonkeyPatch.context() as patch:
        workers(patch, 1)
        return outcome(fit_detector(bundle.dirty, bundle, split), bundle.dirty)


def counts(store: ArtifactStore) -> tuple:
    stats = store.stats
    return stats.lookups, stats.puts, stats.hits, stats.misses


class TestSameFitOnTwoThreads:
    def test_in_memory(self, bundle, split, reference, monkeypatch):
        workers(monkeypatch, 2)
        assert outcome(fit_detector(bundle.dirty, bundle, split), bundle.dirty) == reference

    @pytest.mark.parametrize("shard_rows", [1, 5, 12])
    def test_sharded_twin(self, bundle, split, reference, monkeypatch, tmp_path, shard_rows):
        """Both threads read the twin through an LRU of 3 open arrays."""
        ShardedDataset.convert(bundle.dirty, tmp_path / "twin", shard_rows=shard_rows)
        twin = ShardedDataset(tmp_path / "twin", max_open_arrays=3)
        workers(monkeypatch, 2)
        assert outcome(fit_detector(twin, bundle, split), twin) == reference

    def test_store_traffic(self, bundle, split, monkeypatch, tmp_path):
        """A cold directory store sees the serial fit's lookups, puts and
        hits; a warm one serves every lookup and stores nothing."""
        workers(monkeypatch, 1)
        serial_store = ArtifactStore(tmp_path / "serial")
        fit_detector(bundle.dirty, bundle, split, serial_store)
        workers(monkeypatch, 2)
        cold = ArtifactStore(tmp_path / "threads")
        cold_outcome = outcome(fit_detector(bundle.dirty, bundle, split, cold), bundle.dirty)
        assert counts(cold) == counts(serial_store)
        assert cold.stats.puts == cold.stats.misses > 0
        warm = ArtifactStore(tmp_path / "threads")
        warm_outcome = outcome(fit_detector(bundle.dirty, bundle, split, warm), bundle.dirty)
        assert warm.stats.puts == 0
        assert warm.stats.hits == warm.stats.lookups == cold.stats.lookups
        assert warm_outcome == cold_outcome


class _Rendezvous(Featurizer):
    """Fits only once its partner fits at the same time, and records the
    ambient store and thread it fitted under."""

    branch = None

    def __init__(self, name: str, barrier: threading.Barrier, seen: dict):
        self.name = name
        self._barrier = barrier
        self._seen = seen

    def fit(self, dataset) -> "_Rendezvous":
        self._barrier.wait(timeout=10)
        self._seen[self.name] = (get_default_store(), threading.get_ident())
        return self

    def transform_batch(self, batch):
        return np.zeros((len(batch), 0))

    @property
    def dim(self) -> int:
        return 0


class _Slow(Featurizer):
    """A per-attribute fit that takes 0.2 s and records its start and end."""

    context = FeatureContext.ATTRIBUTE
    branch = None

    def __init__(self, name: str, ran: list):
        self.name = name
        self._ran = ran

    def fit(self, dataset) -> "_Slow":
        self._ran.append(f"{self.name}:start")
        time.sleep(0.2)
        self._ran.append(f"{self.name}:done")
        return self

    def transform_batch(self, batch):
        return np.zeros((len(batch), 0))

    @property
    def dim(self) -> int:
        return 0


def test_the_ambient_store_reaches_both_threads(bundle, monkeypatch):
    """The two fits that can only finish together run on the caller's
    thread and one helper, each under the store the caller installed."""
    workers(monkeypatch, 2)
    barrier, seen = threading.Barrier(2), {}
    pipeline = FeaturePipeline([_Rendezvous("a", barrier, seen), _Rendezvous("b", barrier, seen)])
    store = ArtifactStore()
    with use_store(store):
        pipeline.fit(bundle.dirty)
    assert seen["a"][0] is store and seen["b"][0] is store
    assert seen["a"][1] != seen["b"][1]
    assert threading.get_ident() in {seen["a"][1], seen["b"][1]}


def _settled_thread_count(baseline: int, timeout: float = 10.0) -> int:
    deadline = time.monotonic() + timeout
    while threading.active_count() > baseline and time.monotonic() < deadline:
        time.sleep(0.01)
    return threading.active_count()


class TestFailure:
    @pytest.mark.parametrize("error", [RuntimeError, SystemExit])
    def test_fit_raises_the_featurizers_error(self, bundle, split, monkeypatch, error):
        """An exit raised inside a fit ends the fit as an error does."""

        def broken(self, dataset):
            raise error(f"no fit for {self.name}")

        workers(monkeypatch, 2)
        monkeypatch.setattr(WordEmbeddingFeaturizer, "fit", broken)
        baseline = threading.active_count()
        with pytest.raises(error, match=r"^no fit for word_embedding$"):
            fit_detector(bundle.dirty, bundle, split)
        assert _settled_thread_count(baseline) == baseline

    def test_first_failure_in_pipeline_order_wins(self, bundle, split, monkeypatch):
        """The two relation-wide fits submitted first both fail, the later
        one in pipeline order first: the earlier one's error is raised."""

        def cooccurrence_fails(self, dataset):
            time.sleep(0.2)
            raise ValueError("cooccurrence")

        def tuple_fails(self, dataset):
            raise KeyError("tuple")

        workers(monkeypatch, 2)
        monkeypatch.setattr(CooccurrenceFeaturizer, "fit", cooccurrence_fails)
        monkeypatch.setattr(TupleEmbeddingFeaturizer, "fit", tuple_fails)
        with pytest.raises(ValueError, match=r"^cooccurrence$"):
            fit_detector(bundle.dirty, bundle, split)

    def test_pending_fits_are_cancelled(self, bundle, monkeypatch):
        """A failure cancels the fits that have not started; the running
        ones finish before fit() returns."""

        class Fails(_Slow):
            context = FeatureContext.DATASET

            def fit(self, dataset):
                # Fail once a per-attribute fit runs on the other thread.
                deadline = time.monotonic() + 30
                while not self._ran and time.monotonic() < deadline:
                    time.sleep(0.001)
                raise RuntimeError("relation-wide fit failed")

        workers(monkeypatch, 2)
        ran: list[str] = []
        slow = [_Slow(f"slow{k}", ran) for k in range(5)]
        pipeline = FeaturePipeline([*slow, Fails("fails", ran)])
        baseline = threading.active_count()
        with pytest.raises(RuntimeError, match="relation-wide fit failed"):
            pipeline.fit(bundle.dirty)
        started = [entry[: -len(":start")] for entry in ran if entry.endswith(":start")]
        finished = [entry[: -len(":done")] for entry in ran if entry.endswith(":done")]
        assert sorted(started) == sorted(finished)
        assert 1 <= len(started) < len(slow)
        assert _settled_thread_count(baseline) == baseline


def test_three_detectors_fit_at_once_over_one_store(
    bundle, split, reference, monkeypatch, tmp_path
):
    """Three detectors fit on three threads (six fit threads, more than
    the cores) through one directory store, switching every microsecond:
    each equals the serial reference, and every miss stored its payload."""
    workers(monkeypatch, 2)
    store = ArtifactStore(tmp_path / "shared")
    results: dict[int, tuple] = {}
    problems: list[str] = []

    def fit(index: int) -> None:
        try:
            detector = fit_detector(bundle.dirty, bundle, split, store)
            results[index] = outcome(detector, bundle.dirty)
        except Exception as exc:  # noqa: BLE001 - reported below
            problems.append(f"detector {index}: {exc!r}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fit, args=(k,)) for k in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert problems == []
    assert [results[k] == reference for k in range(3)] == [True, True, True]
    assert store.stats.puts == store.stats.misses > 0


class _Finaliser:
    """Garbage whose finaliser runs Python code: collected in the middle
    of numpy's header parse, it lets another thread run there."""

    def __del__(self):
        sum(range(50))


def test_store_objects_and_shard_chunks_read_on_two_threads(bundle, tmp_path):
    """The two reads a fit thread makes from disk, artifact objects and
    shard chunks, run on two threads that switch every microsecond while
    finalisers run inside numpy's header parse.  Every read returns its
    content, and the store drops no object as corrupt."""
    ShardedDataset.convert(bundle.dirty, tmp_path / "twin", shard_rows=4)
    twin = ShardedDataset(tmp_path / "twin", max_open_arrays=1)
    spans = twin.shard_spans()
    store = ArtifactStore(tmp_path / "store")
    table = np.arange(12.0).reshape(3, 4)
    store.put("key", {"table": table, "name": "x"})
    problems: list[str] = []

    def litter() -> None:
        for _ in range(20):
            garbage = _Finaliser()
            garbage.cycle = garbage

    def read_objects() -> None:
        try:
            for _ in range(1500):
                store.clear_memory()  # every get reads the object file
                payload = store.get("key")
                if payload is None or not np.array_equal(payload["table"], table):
                    problems.append(f"object read returned {payload!r}")
                litter()
        except Exception as exc:  # noqa: BLE001 - reported below
            problems.append(f"object reader: {exc!r}")

    def read_chunks() -> None:
        try:
            for k in range(1500):
                span = spans[k % len(spans)]
                attr = bundle.dirty.attributes[k % len(bundle.dirty.attributes)]
                chunk = twin.column_chunk(attr, span.start, span.stop)
                if list(chunk) != bundle.dirty.column(attr)[span.start : span.stop]:
                    problems.append(f"{attr} of shard {span.index}")
                litter()
        except Exception as exc:  # noqa: BLE001 - reported below
            problems.append(f"chunk reader: {exc!r}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read_objects), threading.Thread(target=read_chunks)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert problems == []
    assert store.stats.corrupt_dropped == 0
    assert store.stats.hits == 1500
