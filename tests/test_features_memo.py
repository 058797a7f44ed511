"""Transform memos (``Featurizer._memo``): reuse across calls changes no bit.

The embedding, n-gram and neighbourhood featurizers memoise per value, and
the tuple embedding and co-occurrence also per row content, for as long as
the fitted model they were computed from lives.  These tests pin what keeps
that reuse exact: content keys (value overrides, edited rows), the reset
with the fitted model (a per-column refresh, a relation-wide refresh,
``load_state``), the entry cap, and concurrent transforms through one
pipeline.  Each memo is a ``FeatureCache``; its hit, miss and eviction
counts are pinned too.
"""

from __future__ import annotations

import os
import sys
import threading

import numpy as np
import pytest

import repro.features.cache as features_cache
from repro.core import DetectionSession, DetectorConfig, HoloDetect
from repro.data import load_dataset
from repro.dataset import Cell, Dataset
from repro.evaluation import make_split
from repro.features import (
    CellBatch,
    CharEmbeddingFeaturizer,
    CooccurrenceFeaturizer,
    FeaturePipeline,
    FormatNGramFeaturizer,
    TupleEmbeddingFeaturizer,
)
from repro.features.cache import CacheStats, FeatureCache
from repro.persistence import load_detector, save_detector


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A fitted detector's save directory and the relation it was fitted on."""
    bundle = load_dataset("hospital", num_rows=40, seed=3)
    split = make_split(bundle, 0.2, rng=0)
    detector = HoloDetect(DetectorConfig(epochs=2, embedding_dim=4, seed=0))
    detector.fit(bundle.dirty, split.training, bundle.constraints)
    path = tmp_path_factory.mktemp("memo") / "detector"
    save_detector(detector, path)
    return path, bundle.dirty


def _fresh(saved) -> HoloDetect:
    """The saved detector, loaded with empty memos over a copy of its relation."""
    path, relation = saved
    return load_detector(path, relation.copy())


def _shuffled(dataset: Dataset, seed: int = 0) -> list[Cell]:
    cells = list(dataset.cells())
    return [cells[i] for i in np.random.default_rng(seed).permutation(len(cells))]


def _blocks(features) -> list[bytes]:
    return [features.numeric.tobytes()] + [
        features.branches[name].tobytes() for name in sorted(features.branches)
    ]


def _featurizer(detector: HoloDetect, name: str):
    return next(f for f in detector.pipeline.featurizers if f.name == name)


def _memos(detector: HoloDetect) -> list[FeatureCache]:
    """Every transform memo of the detector's featurizers."""
    return [
        memo
        for featurizer in detector.pipeline.featurizers
        for _, memo in getattr(featurizer, "_memos", {}).values()
    ]


@pytest.fixture
def relation():
    rows = [["60612", "Chicago", "IL"]] * 4 + [["02139", "Cambridge", "MA"]] * 4
    return Dataset.from_rows(["zip", "city", "state"], rows)


class TestContentKeys:
    def test_warm_detector_matches_a_fresh_load(self, saved):
        warm, fresh = _fresh(saved), _fresh(saved)
        dataset = warm._dataset
        warm.predict(list(dataset.cells()))  # every memo warm
        cells = _shuffled(dataset)
        assert (
            warm.predict(cells).probabilities.tobytes()
            == fresh.predict(cells).probabilities.tobytes()
        )

    def test_warm_detector_matches_a_fresh_load_with_overrides(self, saved):
        warm, fresh = _fresh(saved), _fresh(saved)
        dataset = warm._dataset
        warm.predict(list(dataset.cells()))
        cells = _shuffled(dataset, seed=1)
        # Every other cell carries a value from elsewhere in the relation (a
        # memo hit under another cell) or a new one (a miss).
        donors = _shuffled(dataset, seed=2)
        values = [
            dataset.value(cell) if i % 2 else dataset.value(donors[i]) + ("" if i % 4 else "~")
            for i, cell in enumerate(cells)
        ]
        warm_features = warm.pipeline.transform(cells, dataset, values)
        fresh_features = fresh.pipeline.transform(cells, fresh._dataset, values)
        assert _blocks(warm_features) == _blocks(fresh_features)
        assert (
            warm._score_features(warm_features).tobytes()
            == fresh._score_features(fresh_features).tobytes()
        )

    def test_edited_row_mates_read_their_new_context(self, saved):
        detector = _fresh(saved)
        dataset = detector._dataset
        detector.predict(list(dataset.cells()))  # every memo warm
        session = DetectionSession(detector)
        edited = Cell(3, dataset.attributes[0])
        session.apply({edited: dataset.value(edited) + " edited"})
        row_mates = [c for c in dataset.cells_of_row(3) if c != edited]
        warm = _featurizer(detector, "tuple_embedding")
        fresh = TupleEmbeddingFeaturizer.from_state(warm.to_state())
        batch = CellBatch(row_mates, dataset)
        assert warm.transform_batch(batch).tobytes() == fresh.transform_batch(batch).tobytes()
        # And end to end: the patched session equals a fresh full prediction.
        path, _ = saved
        reloaded = load_detector(path, dataset.copy())
        expected = reloaded.predict(session.predictions.cells).probabilities
        assert session.predictions.probabilities.tobytes() == expected.tobytes()


class TestCooccurrence:
    """``(attribute, value, row values)`` → the cell's conditionals."""

    @staticmethod
    def _memo(featurizer: CooccurrenceFeaturizer) -> dict:
        return featurizer._memo("row", featurizer._joint)

    def test_warm_scores_equal_a_fresh_load(self, saved):
        warm, fresh = _fresh(saved), _fresh(saved)
        dataset = warm._dataset
        warm.predict(list(dataset.cells()))
        memo = self._memo(_featurizer(warm, "cooccurrence"))
        assert memo
        cells = _shuffled(dataset, seed=5)
        warm_block = _featurizer(warm, "cooccurrence").transform(cells, dataset)
        fresh_block = _featurizer(fresh, "cooccurrence").transform(cells, fresh._dataset)
        assert warm_block.tobytes() == fresh_block.tobytes()
        for size in (1, 30, 97):
            assert (
                warm.predict(cells[:size]).probabilities.tobytes()
                == fresh.predict(cells[:size]).probabilities.tobytes()
            )

    def test_an_overridden_value_is_keyed_by_that_value(self, saved):
        warm, fresh = _fresh(saved), _fresh(saved)
        dataset = warm._dataset
        featurizer = _featurizer(warm, "cooccurrence")
        cell = Cell(5, dataset.attributes[1])
        observed = dataset.value(cell)
        # A value the column holds in another row, so its counts exist.
        other = next(v for v in dataset.column(cell.attr) if v != observed)
        plain = featurizer.transform([cell], dataset)
        overridden = featurizer.transform([cell], dataset, [other])
        row = tuple(dataset.row_values(cell.row))
        assert {(cell.attr, observed, row), (cell.attr, other, row)} <= set(self._memo(featurizer))
        assert plain.tobytes() != overridden.tobytes()
        reference = _featurizer(fresh, "cooccurrence")
        assert overridden.tobytes() == reference.transform([cell], fresh._dataset, [other]).tobytes()
        # The override left the observed value's entry alone.
        assert featurizer.transform([cell], dataset).tobytes() == plain.tobytes()

    def test_an_edited_rows_row_mates_miss(self, saved):
        detector = _fresh(saved)
        dataset = detector._dataset
        detector.predict(list(dataset.cells()))
        featurizer = _featurizer(detector, "cooccurrence")
        session = DetectionSession(detector)
        # A row outside the training set, so the session scores its cells.
        row = session.predictions.cells[0].row
        edited = Cell(row, dataset.attributes[0])
        old_row = tuple(dataset.row_values(row))
        session.apply({edited: dataset.value(edited) + " edited"})
        new_row = tuple(dataset.row_values(row))
        row_mates = [c for c in dataset.cells_of_row(row) if c != edited]
        keys = set(self._memo(featurizer))
        # The session's rescore computed the row-mates under the new row...
        seen = [c for c in row_mates if featurizer._value_counts.get((c.attr, dataset.value(c)))]
        assert seen
        for cell in seen:
            assert (cell.attr, dataset.value(cell), new_row) in keys
        # ...and the pre-edit entries cannot serve them: their key differs.
        assert old_row != new_row
        fresh = CooccurrenceFeaturizer.from_state(featurizer.to_state())
        batch = CellBatch(row_mates, dataset)
        assert featurizer.transform_batch(batch).tobytes() == fresh.transform_batch(batch).tobytes()

    def test_refresh_and_load_state_reset_the_memo(self):
        rows = [["60612", "Chicago", "IL"]] * 4 + [["02139", "Cambridge", "MA"]] * 4
        relation = Dataset.from_rows(["zip", "city", "state"], rows)
        featurizer = CooccurrenceFeaturizer().fit(relation)
        featurizer.transform(list(relation.cells()), relation)
        memo = self._memo(featurizer)
        assert memo
        delta = relation.apply_edits({Cell(0, "city"): "Springfield"})
        assert featurizer.refresh(relation, delta)
        assert self._memo(featurizer) == {}
        featurizer.transform(list(relation.cells()), relation)
        refreshed = self._memo(featurizer)
        assert refreshed and refreshed is not memo
        featurizer.load_state(featurizer.to_state())
        assert self._memo(featurizer) == {}

    def test_a_relation_in_another_column_order_reads_no_entry(self):
        """A row tuple names values by schema position.  Under a header
        that orders the columns differently the same tuple means other
        values, so that relation must not read the fitted order's entries."""
        rows = [["60612", "Chicago", "IL"]] * 3 + [["02139", "Cambridge", "MA"]] * 3
        relation = Dataset.from_rows(["zip", "city", "state"], rows)
        reordered = Dataset.from_rows(["city", "zip", "state"], rows)
        featurizer = CooccurrenceFeaturizer().fit(relation)
        cells = list(relation.cells())
        values = [relation.value(c) for c in cells]
        fitted_order = featurizer.transform(cells, relation)
        assert self._memo(featurizer)
        # Same cells, values and row tuples: only the column names moved.
        fresh = CooccurrenceFeaturizer.from_state(featurizer.to_state())
        expected = fresh.transform(cells, reordered, values)
        assert expected.tobytes() != fitted_order.tobytes()
        assert featurizer.transform(cells, reordered, values).tobytes() == expected.tobytes()


class TestReset:
    def test_refresh_replaces_only_the_refitted_columns_memo(self, relation):
        featurizer = CharEmbeddingFeaturizer(dim=4, epochs=1)
        pipeline = FeaturePipeline([featurizer]).fit(relation)
        pipeline.transform(list(relation.cells()), relation)
        city = featurizer._memo("city", featurizer._models["city"])
        zip_memo = featurizer._memo("zip", featurizer._models["zip"])
        assert city and zip_memo
        delta = relation.apply_edits({Cell(0, "city"): "Springfield"})
        assert pipeline.refresh(relation, delta) == ["char_embedding"]
        pipeline.transform(list(relation.cells()), relation)
        assert featurizer._memo("city", featurizer._models["city"]) is not city
        assert featurizer._memo("zip", featurizer._models["zip"]) is zip_memo

    def test_load_state_starts_empty(self, relation):
        featurizer = FormatNGramFeaturizer().fit(relation)
        featurizer.transform(list(relation.cells()), relation)
        assert featurizer._memo("zip", featurizer._models["zip"])
        featurizer.load_state(featurizer.to_state())
        assert featurizer._memo("zip", featurizer._models["zip"]) == {}


class TestCap:
    def test_a_full_memo_is_emptied_and_outputs_stay_identical(self, saved, monkeypatch):
        reference, capped = _fresh(saved), _fresh(saved)
        cells = _shuffled(capped._dataset, seed=3)[:120]
        expected = [_blocks(reference.pipeline.transform([c], reference._dataset)) for c in cells]
        monkeypatch.setattr(features_cache, "MEMO_MAX_ENTRIES", 3)
        char = _featurizer(capped, "char_embedding")
        sizes = []
        for cell, blocks in zip(cells, expected):
            assert _blocks(capped.pipeline.transform([cell], capped._dataset)) == blocks
            sizes.append(sum(len(memo) for _, memo in char._memos.values()))
        per_memo = [len(memo) for _, memo in char._memos.values()]
        assert max(per_memo) <= 3
        # Filling past the cap empties the memo: the total shrank at least once.
        assert any(after < before for before, after in zip(sizes, sizes[1:]))


class TestCounts:
    """Each memo counts its lookups and misses (hits are the difference)
    and the entries its cap drops; on one thread the counts are exact."""

    def test_memo_builds_feature_caches_with_hit_counts(self, saved):
        detector = _fresh(saved)
        detector.predict(_shuffled(detector._dataset, seed=6)[:90])
        memos = _memos(detector)
        assert memos and all(type(memo) is FeatureCache for memo in memos)
        for memo in memos:
            # A fresh load starts empty, so every entry was one miss.
            assert memo.stats.misses == len(memo)
            assert memo.stats.hits == memo.stats.lookups - memo.stats.misses >= 0
        assert sum(memo.stats.hits for memo in memos) > 0

    def test_a_repeated_predict_counts_only_hits(self, saved):
        detector = _fresh(saved)
        cells = _shuffled(detector._dataset, seed=7)
        first = detector.predict(cells).probabilities
        before = {id(memo): (memo.stats.lookups, memo.stats.misses) for memo in _memos(detector)}
        assert detector.predict(cells).probabilities.tobytes() == first.tobytes()
        memos = _memos(detector)
        assert {id(memo) for memo in memos} == set(before)
        hits = 0
        for memo in memos:
            lookups, misses = before[id(memo)]
            assert memo.stats.misses == misses
            hits += memo.stats.lookups - lookups
        assert hits > 0

    def test_the_cap_counts_its_evictions(self, monkeypatch):
        codes = Dataset.from_rows(["code"], [[f"v{i}"] for i in range(7)])
        featurizer = FormatNGramFeaturizer().fit(codes)
        monkeypatch.setattr(features_cache, "MEMO_MAX_ENTRIES", 3)
        for cell in codes.cells():  # one new value per call
            featurizer.transform([cell], codes)
        # The 4th and 7th calls each found 3 entries and dropped them.
        _, memo = featurizer._memos["code"]
        assert memo.stats == CacheStats(lookups=7, misses=7, evictions=6)
        assert len(memo) == 1

    def test_a_refitted_column_starts_counting_afresh(self, relation):
        featurizer = CharEmbeddingFeaturizer(dim=4, epochs=1)
        pipeline = FeaturePipeline([featurizer]).fit(relation)
        cells = list(relation.cells())
        for _ in range(2):
            pipeline.transform(cells, relation)
        _, city = featurizer._memos["city"]
        _, zip_memo = featurizer._memos["zip"]
        assert city.stats.hits > 0 and zip_memo.stats.hits > 0
        zip_before = CacheStats(**vars(zip_memo.stats))
        delta = relation.apply_edits({Cell(0, "city"): "Springfield"})
        assert pipeline.refresh(relation, delta) == ["char_embedding"]
        pipeline.transform(cells, relation)
        _, refitted = featurizer._memos["city"]
        assert refitted is not city
        # Only the pass after the refit, over three distinct city values.
        assert refitted.stats == CacheStats(lookups=3, misses=3)
        assert featurizer._memos["zip"][1] is zip_memo
        assert zip_memo.stats.misses == zip_before.misses
        assert zip_memo.stats.lookups == zip_before.lookups + 2


def test_concurrent_transforms_match_the_single_threaded_reference(saved, monkeypatch):
    """More threads than cores transform overlapping batches through one
    pipeline whose small memos fill and empty under them."""
    detector = _fresh(saved)
    pipeline, dataset = detector.pipeline, detector._dataset
    cells = _shuffled(dataset, seed=4)[:160]
    batches = [cells[start : start + 24] for start in range(0, 140, 8)]
    reference = [_blocks(pipeline.transform(batch, dataset)) for batch in batches]
    monkeypatch.setattr(features_cache, "MEMO_MAX_ENTRIES", 2)
    threads_count = (os.cpu_count() or 1) + 2
    problems: list[str] = []

    def work(offset: int) -> None:
        try:
            for k in range(len(batches)):
                index = (k + offset) % len(batches)
                if _blocks(pipeline.transform(batches[index], dataset)) != reference[index]:
                    problems.append(f"thread {offset}: batch {index} differs")
        except Exception as exc:  # noqa: BLE001 - reported below
            problems.append(f"thread {offset}: {exc!r}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(threads_count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert problems == []
