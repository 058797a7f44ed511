"""Tests for the batched featurization engine and the feature cache.

Covers the ISSUE 1 checklist: hit/miss accounting, invalidation on dataset
change, and byte-identical outputs versus the uncached path — plus the
batch-vs-single-cell equivalence that underpins the vectorised transforms.
"""

import numpy as np
import pytest

from repro.dataset import Cell, Dataset
from repro.features import (
    CellBatch,
    ColumnIdFeaturizer,
    EmpiricalDistributionFeaturizer,
    FeatureCache,
    FeaturePipeline,
    Featurizer,
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

    def test_digest_sensitive_to_values(self, dataset, cells):
        plain = CellBatch(cells, dataset)
        overridden = CellBatch(cells, dataset, values=["a", "b", "c", "d"])
        assert plain.digest != overridden.digest
        assert plain.digest == CellBatch(cells, dataset).digest


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
    def test_hit_miss_accounting(self, dataset, cells):
        f = EmpiricalDistributionFeaturizer().fit(dataset)
        cache = FeatureCache()
        batch = CellBatch(cells, dataset)
        cache.get_or_compute(f, batch)
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)
        cache.get_or_compute(f, batch)
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        # A different batch of the same cells still hits: same digest.
        cache.get_or_compute(f, CellBatch(cells, dataset))
        assert cache.stats.hits == 2
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_value_override_keys_separately(self, dataset):
        f = EmpiricalDistributionFeaturizer().fit(dataset)
        cache = FeatureCache()
        probe = [Cell(0, "city")]
        a = cache.get_or_compute(f, CellBatch(probe, dataset))
        b = cache.get_or_compute(f, CellBatch(probe, dataset, values=["Cicago"]))
        assert cache.stats.misses == 2 and cache.stats.hits == 0
        assert a[0, 0] == pytest.approx(10 / 21)
        assert b[0, 0] == pytest.approx(1 / 21)

    def test_cached_blocks_byte_identical(self, dataset, fitted_pipeline, cells):
        cache = FeatureCache()
        batch = CellBatch(cells, dataset)
        for featurizer in fitted_pipeline.featurizers:
            uncached = featurizer.transform_batch(batch)
            cached_cold = cache.get_or_compute(featurizer, batch)
            cached_warm = cache.get_or_compute(featurizer, batch)
            assert uncached.tobytes() == cached_cold.tobytes() == cached_warm.tobytes()

    def test_invalidation_on_dataset_change(self, cells):
        rows = [["60612", "Chicago", "IL"]] * 5
        mutable = Dataset.from_rows(["zip", "city", "state"], rows)
        f = EmpiricalDistributionFeaturizer().fit(mutable)
        cache = FeatureCache()
        probe = [Cell(0, "city")]
        cache.get_or_compute(f, CellBatch(probe, mutable))
        # Mutating the dataset changes its fingerprint: the next lookup is a
        # miss — the stale block is never served again.
        mutable.set_value(Cell(1, "city"), "Springfield")
        cache.get_or_compute(f, CellBatch(probe, mutable))
        assert cache.stats.misses == 2 and cache.stats.hits == 0
        # After refitting on the mutated data (fresh token), the recomputed
        # block reflects the new contents.
        f.fit(mutable)
        f.reset_cache_token()
        after = cache.get_or_compute(f, CellBatch(probe, mutable))
        assert cache.stats.misses == 3
        assert after[0, 0] == pytest.approx(4 / 5)

    def test_refit_invalidates_via_token(self, dataset, cells):
        pipeline = FeaturePipeline([ColumnIdFeaturizer()], cache=FeatureCache())
        pipeline.fit(dataset)
        batch = CellBatch(cells, dataset)
        pipeline.transform_batch(batch)
        token_before = pipeline.featurizers[0].cache_token
        pipeline.fit(dataset)
        assert pipeline.featurizers[0].cache_token != token_before
        pipeline.transform_batch(batch)
        # Both passes were misses: the refit issued a fresh token.
        assert pipeline.cache.stats.hits == 0

    def test_lru_eviction(self, dataset, cells):
        f = EmpiricalDistributionFeaturizer().fit(dataset)
        cache = FeatureCache(max_entries=2)
        batches = [CellBatch([c], dataset) for c in cells[:3]]
        for batch in batches:
            cache.get_or_compute(f, batch)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # The oldest entry (cells[0]) was evicted; re-fetching it misses.
        cache.get_or_compute(f, batches[0])
        assert cache.stats.misses == 4

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            FeatureCache(max_entries=0)


class TestPipelineCaching:
    def test_pipeline_transform_hits_on_repeat(self, dataset, fitted_pipeline, cells):
        cache = FeatureCache()
        fitted_pipeline.cache = cache
        first = fitted_pipeline.transform(cells, dataset)
        assert cache.stats.hits == 0
        lookups_per_pass = cache.stats.misses
        assert lookups_per_pass == len(fitted_pipeline.featurizers)
        second = fitted_pipeline.transform(cells, dataset)
        assert cache.stats.hits == lookups_per_pass
        np.testing.assert_array_equal(first.numeric, second.numeric)
        for branch in first.branches:
            np.testing.assert_array_equal(first.branches[branch], second.branches[branch])

    def test_cached_and_uncached_pipelines_agree(self, dataset, fitted_pipeline, cells):
        fitted_pipeline.cache = None
        uncached = fitted_pipeline.transform(cells, dataset)
        fitted_pipeline.cache = FeatureCache()
        fitted_pipeline.transform(cells, dataset)  # cold fill
        warm = fitted_pipeline.transform(cells, dataset)
        assert uncached.numeric.tobytes() == warm.numeric.tobytes()
        for branch in uncached.branches:
            assert uncached.branches[branch].tobytes() == warm.branches[branch].tobytes()


class TestCacheConcurrency:
    def test_parallel_lookups_are_consistent(self, dataset, fitted_pipeline, cells):
        from concurrent.futures import ThreadPoolExecutor

        cache = FeatureCache()
        fitted_pipeline.cache = cache
        batches = [CellBatch(cells, dataset) for _ in range(8)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(fitted_pipeline.transform_batch, batches))
        reference = results[0]
        for other in results[1:]:
            np.testing.assert_array_equal(reference.numeric, other.numeric)
        # One block per featurizer survives; concurrent misses may compute
        # the same block more than once but never corrupt the cache.
        assert len(cache) == len(fitted_pipeline.featurizers)
        assert cache.stats.lookups == 8 * len(fitted_pipeline.featurizers)


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
