"""Tests for the batched featurization engine and its transform memos.

``CellBatch`` groupings, the batch-vs-single-cell equivalence that
underpins the vectorised transforms, transform-only legacy subclasses,
dataset fingerprints, and the ``FeatureCache`` memos of single featurizers
and pipelines on a small relation: hit/miss accounting, content keys,
refits, and byte-identical outputs warm and cold.  The memos under a whole
detector (saved, served, edited, capped) are tested in
``test_features_memo.py``.
"""

import numpy as np
import pytest

from repro.dataset import Cell, Dataset
from repro.features import (
    CacheStats,
    CellBatch,
    CooccurrenceFeaturizer,
    FeatureCache,
    FeaturePipeline,
    Featurizer,
    FormatNGramFeaturizer,
    default_pipeline,
)
from repro.features.extra import TokenFrequencyFeaturizer, ValueLengthFeaturizer


@pytest.fixture(scope="module")
def dataset():
    rows = [["60612", "Chicago", "IL"]] * 10 + [["02139", "Cambridge", "MA"]] * 10
    rows.append(["60612", "Cicago", "IL"])
    return Dataset.from_rows(["zip", "city", "state"], rows)


@pytest.fixture(scope="module")
def cells(dataset):
    return [Cell(0, "city"), Cell(20, "city"), Cell(0, "zip"), Cell(5, "state")]


@pytest.fixture
def fitted_pipeline(dataset, zip_fd):
    return default_pipeline(
        [zip_fd], embedding_dim=4, embedding_epochs=1
    ).fit(dataset)


def _memos(featurizer: Featurizer) -> dict[str, FeatureCache]:
    """A featurizer's transform memos by name."""
    return {name: memo for name, (_, memo) in getattr(featurizer, "_memos", {}).items()}


def _pipeline_memos(pipeline: FeaturePipeline) -> dict[tuple[str, str], FeatureCache]:
    """Every transform memo of a pipeline, by featurizer and memo name."""
    return {
        (featurizer.name, name): memo
        for featurizer in pipeline.featurizers
        for name, memo in _memos(featurizer).items()
    }


def _drop_memos(pipeline: FeaturePipeline) -> None:
    """Forget every memo, so the next transform computes from cold."""
    for featurizer in pipeline.featurizers:
        featurizer.__dict__.pop("_memos", None)


def _blocks(features) -> list[bytes]:
    return [features.numeric.tobytes()] + [
        features.branches[name].tobytes() for name in sorted(features.branches)
    ]


class TestCellBatch:
    def test_resolved_uses_overrides(self, dataset, cells):
        batch = CellBatch(cells[:2], dataset, values=["A", "B"])
        assert batch.resolved == ["A", "B"]

    def test_override_length_mismatch(self, dataset, cells):
        with pytest.raises(ValueError, match="must match"):
            CellBatch(cells, dataset, values=["only-one"])

    def test_by_attr_groups_positions(self, dataset, cells):
        batch = CellBatch(cells, dataset)
        assert sorted(batch.by_attr) == ["city", "state", "zip"]
        np.testing.assert_array_equal(batch.by_attr["city"], [0, 1])
        np.testing.assert_array_equal(batch.by_attr["zip"], [2])

    def test_value_groups_deduplicate(self, dataset):
        batch = CellBatch([Cell(0, "city"), Cell(1, "city"), Cell(20, "city")], dataset)
        groups = batch.value_groups["city"]
        np.testing.assert_array_equal(groups["Chicago"], [0, 1])
        np.testing.assert_array_equal(groups["Cicago"], [2])

    def test_overridden_mask(self, dataset):
        batch = CellBatch(
            [Cell(0, "city"), Cell(1, "city")], dataset, values=["Chicago", "Nope"]
        )
        np.testing.assert_array_equal(batch.overridden, [False, True])


class TestBatchEquivalence:
    """transform_batch must equal per-cell transform for every model."""

    def test_batched_equals_per_cell(self, dataset, fitted_pipeline, cells):
        for featurizer in fitted_pipeline.featurizers:
            batched = featurizer.transform(cells, dataset)
            singles = np.vstack(
                [featurizer.transform([c], dataset) for c in cells]
            )
            np.testing.assert_array_equal(batched, singles, err_msg=featurizer.name)

    def test_batched_equals_per_cell_with_overrides(self, dataset, fitted_pipeline):
        probe = [Cell(0, "city"), Cell(20, "city"), Cell(3, "zip")]
        values = ["Cambridge", "Chicago", "99999"]
        for featurizer in fitted_pipeline.featurizers:
            batched = featurizer.transform(probe, dataset, values=values)
            singles = np.vstack(
                [
                    featurizer.transform([c], dataset, values=[v])
                    for c, v in zip(probe, values)
                ]
            )
            np.testing.assert_array_equal(batched, singles, err_msg=featurizer.name)

    def test_extra_featurizers_batched(self, dataset, cells):
        for featurizer in (ValueLengthFeaturizer(), TokenFrequencyFeaturizer()):
            featurizer.fit(dataset)
            batched = featurizer.transform(cells, dataset)
            singles = np.vstack([featurizer.transform([c], dataset) for c in cells])
            np.testing.assert_array_equal(batched, singles)


class TestFeatureCache:
    """One fitted model's memo: keyed by content, counting its lookups
    (one per distinct value of a column in a call) and misses."""

    def test_hit_miss_accounting(self, dataset, cells):
        f = FormatNGramFeaturizer().fit(dataset)
        f.transform(cells, dataset)
        memos = _memos(f)
        assert sorted(memos) == ["city", "state", "zip"]
        assert all(type(memo) is FeatureCache for memo in memos.values())
        assert memos["city"].stats == CacheStats(lookups=2, misses=2)
        assert memos["zip"].stats == CacheStats(lookups=1, misses=1)
        f.transform(cells, dataset)
        assert memos["city"].stats == CacheStats(lookups=4, misses=2)
        # Other cells holding the same value still hit: the key is the value.
        f.transform([Cell(1, "city"), Cell(2, "city")], dataset)
        assert memos["city"].stats == CacheStats(lookups=5, misses=2)
        assert memos["city"].stats.hits == 3
        assert all(_memos(f)[attr] is memo for attr, memo in memos.items())

    def test_value_override_keys_separately(self, dataset):
        f = FormatNGramFeaturizer().fit(dataset)
        probe = [Cell(0, "city")]
        plain = f.transform(probe, dataset)
        overridden = f.transform(probe, dataset, values=["Cicago"])
        memo = _memos(f)["city"]
        assert memo.stats == CacheStats(lookups=2, misses=2)
        assert set(memo) == {"Chicago", "Cicago"}
        assert plain.tobytes() != overridden.tobytes()
        # The entry is the value's, whichever cell carries it: row 20
        # observes "Cicago".
        assert f.transform([Cell(20, "city")], dataset).tobytes() == overridden.tobytes()
        assert memo.stats == CacheStats(lookups=3, misses=2)

    def test_cached_blocks_byte_identical(self, dataset, fitted_pipeline, cells):
        plain = CellBatch(cells, dataset)
        overridden = CellBatch(cells, dataset, values=["Chicago", "Cambridge", "99999", "IL"])
        for featurizer in fitted_pipeline.featurizers:
            reference = type(featurizer).from_state(featurizer.to_state())
            featurizer.__dict__.pop("_memos", None)
            for batch in (plain, overridden):
                cold = featurizer.transform_batch(batch)
                warm = featurizer.transform_batch(batch)
                expected = reference.transform_batch(batch)
                assert cold.tobytes() == warm.tobytes() == expected.tobytes(), featurizer.name

    def test_invalidation_on_dataset_change(self):
        """An edit without a refit reuses only entries it leaves true (the
        model is unchanged); a refit starts a new memo, whose entries read
        the edited contents."""
        rows = [["60612", "Chicago", "IL"]] * 5
        mutable = Dataset.from_rows(["zip", "city", "state"], rows)
        f = FormatNGramFeaturizer().fit(mutable)
        probe = [Cell(0, "city")]
        before = f.transform(probe, mutable)
        memo = _memos(f)["city"]
        mutable.set_value(Cell(1, "city"), "Springfield")
        assert f.transform(probe, mutable).tobytes() == before.tobytes()
        f.transform([Cell(1, "city")], mutable)
        assert memo.stats == CacheStats(lookups=3, misses=2)
        f.fit(mutable)
        after = f.transform(probe, mutable)
        refitted = _memos(f)["city"]
        assert refitted is not memo
        assert refitted.stats == CacheStats(lookups=1, misses=1)
        assert memo.stats == CacheStats(lookups=3, misses=2)
        expected = FormatNGramFeaturizer().fit(mutable).transform(probe, mutable)
        assert after.tobytes() == expected.tobytes()
        assert after.tobytes() != before.tobytes()

    def test_refit_starts_fresh_memos(self, dataset, cells):
        pipeline = FeaturePipeline([FormatNGramFeaturizer(), CooccurrenceFeaturizer()])
        pipeline.fit(dataset).transform(cells, dataset)
        before = _pipeline_memos(pipeline)
        counts = {key: CacheStats(**vars(memo.stats)) for key, memo in before.items()}
        assert ("cooccurrence", "row") in before
        pipeline.fit(dataset).transform(cells, dataset)
        after = _pipeline_memos(pipeline)
        assert set(after) == set(before)
        for key, memo in after.items():
            assert memo is not before[key], key
            # Counted from zero: the same calls read the same counts.
            assert memo.stats == counts[key], key
            assert before[key].stats == counts[key], key


class TestPipelineCaching:
    def test_pipeline_transform_hits_on_repeat(self, dataset, fitted_pipeline, cells):
        values = ["Cambridge", "Chicago", "99999", "XX"]

        def counts():
            return {
                key: (memo.stats.lookups, memo.stats.misses)
                for key, memo in _pipeline_memos(fitted_pipeline).items()
            }

        def added(start, end):
            return {
                key: (lookups - start.get(key, (0, 0))[0], misses - start.get(key, (0, 0))[1])
                for key, (lookups, misses) in end.items()
            }

        start = counts()
        first = fitted_pipeline.transform(cells, dataset, values)
        middle = counts()
        second = fitted_pipeline.transform(cells, dataset, values)
        first_pass, second_pass = added(start, middle), added(middle, counts())
        assert set(second_pass) == set(first_pass)
        assert sum(misses for _, misses in first_pass.values()) > 0
        for key, (lookups, misses) in second_pass.items():
            assert misses == 0, key
            # The tuple embedding reads its token memo only on a miss of
            # its other two memos; every other memo counts the same
            # lookups on each pass.
            if key != ("tuple_embedding", "tokens"):
                assert lookups == first_pass[key][0], key
        assert _blocks(first) == _blocks(second)

    def test_cached_and_uncached_pipelines_agree(self, dataset, fitted_pipeline, cells):
        values = ["Cambridge", "Chicago", "99999", "XX"]
        for _ in range(2):
            warm = fitted_pipeline.transform(cells, dataset)
            warm_overridden = fitted_pipeline.transform(cells, dataset, values)
        _drop_memos(fitted_pipeline)
        assert _blocks(fitted_pipeline.transform(cells, dataset)) == _blocks(warm)
        _drop_memos(fitted_pipeline)
        assert _blocks(fitted_pipeline.transform(cells, dataset, values)) == _blocks(
            warm_overridden
        )


class TestCacheConcurrency:
    def test_parallel_lookups_are_consistent(self, dataset, fitted_pipeline, cells):
        from concurrent.futures import ThreadPoolExecutor

        _drop_memos(fitted_pipeline)
        reference = fitted_pipeline.transform(cells, dataset)
        entries = {key: set(memo) for key, memo in _pipeline_memos(fitted_pipeline).items()}
        _drop_memos(fitted_pipeline)
        batches = [CellBatch(cells, dataset) for _ in range(8)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(fitted_pipeline.transform_batch, batches))
        for other in results:
            assert _blocks(other) == _blocks(reference)
        # Threads that miss one entry at once may each compute it, but the
        # memos end holding exactly the entries of one pass.
        assert {
            key: set(memo) for key, memo in _pipeline_memos(fitted_pipeline).items()
        } == entries


class TestLegacyFeaturizerCompat:
    def test_transform_only_subclass_still_works(self, dataset, cells):
        class Legacy(Featurizer):
            name = "legacy"

            def fit(self, ds):
                return self

            # Pre-batching two-argument signature (no ``values``).
            def transform(self, cells, dataset):
                return np.ones((len(cells), 1))

            @property
            def dim(self):
                return 1

        legacy = Legacy().fit(dataset)
        out = legacy.transform_batch(CellBatch(cells, dataset))
        assert out.shape == (len(cells), 1)

    def test_transform_only_subclass_with_values(self, dataset, cells):
        class Legacy(Featurizer):
            name = "legacy_values"

            def fit(self, ds):
                return self

            def transform(self, cells, dataset, values=None):
                block = np.ones((len(cells), 1))
                return block * 2 if values is not None else block

        legacy = Legacy().fit(dataset)
        out = legacy.transform_batch(
            CellBatch(cells, dataset, values=["x"] * len(cells))
        )
        np.testing.assert_array_equal(out, np.full((len(cells), 1), 2.0))

    def test_unimplemented_subclass_raises(self, dataset, cells):
        class Empty(Featurizer):
            name = "empty"

        with pytest.raises(NotImplementedError):
            Empty().transform_batch(CellBatch(cells, dataset))


class TestDatasetFingerprint:
    def test_stable_until_mutation(self, dataset):
        assert dataset.fingerprint() == dataset.fingerprint()

    def test_copy_shares_fingerprint(self, dataset):
        assert dataset.copy().fingerprint() == dataset.fingerprint()

    def test_mutation_changes_fingerprint(self):
        ds = Dataset.from_rows(["a"], [["x"], ["y"]])
        before = ds.fingerprint()
        ds.set_value(Cell(0, "a"), "z")
        assert ds.fingerprint() != before
