"""Tests for the content-addressed fitted-artifact store (repro.artifacts).

Covers the ISSUE 5 acceptance surface: key stability under config dict
reordering (hypothesis), store round-trip through eviction and disk reload
with bit-identical predictions, corrupt/partial on-disk artifacts tolerated
as misses, and concurrent sweep workers sharing one store directory
producing metrics identical to a sequential cold run.
"""

from __future__ import annotations

import dataclasses
import json
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.artifacts import (
    ArtifactStore,
    artifact_key,
    get_default_store,
    training_seed,
    use_store,
)
from repro.artifacts import store as store_module
from repro.artifacts.store import flatten_arrays
from repro.core.detector import DetectionSession, DetectorConfig, HoloDetect
from repro.data import load_dataset
from repro.evaluation.matrix import CoordinateOptions, ScenarioMatrix, run_matrix
from repro.evaluation.splits import make_split
from repro.evaluation.store import ResultStore
from repro.utils.npyio import load_npz

#: Tiny but complete detector settings shared by the fit-path tests.
TINY = dict(epochs=2, embedding_dim=4, min_training_steps=20, seed=3)


@pytest.fixture(scope="module")
def small_bundle():
    return load_dataset("hospital", num_rows=60, seed=2)


@pytest.fixture(scope="module")
def small_split(small_bundle):
    return make_split(small_bundle, 0.15, rng=1)


def fit_and_predict(bundle, split, artifact_store=None, **config):
    detector = HoloDetect(DetectorConfig(**TINY, **config))
    if artifact_store is not None:
        detector.use_artifacts(artifact_store)
    detector.fit(bundle.dirty, split.training, bundle.constraints)
    return detector, detector.predict()


# --------------------------------------------------------------------- #
# Key derivation
# --------------------------------------------------------------------- #

scalars = st.one_of(
    st.integers(-10, 10), st.text(max_size=8), st.booleans(), st.none()
)
configs = st.dictionaries(st.text(min_size=1, max_size=8), scalars, max_size=6)


class TestArtifactKeys:
    @given(config=configs)
    @settings(max_examples=50, deadline=None)
    def test_stable_under_config_reordering(self, config):
        reordered = dict(reversed(list(config.items())))
        assert artifact_key("k", "scope", config) == artifact_key(
            "k", "scope", reordered
        )

    def test_components_all_enter_the_key(self):
        base = artifact_key("kind", "scope", {"a": 1}, seed=0)
        assert artifact_key("other", "scope", {"a": 1}, seed=0) != base
        assert artifact_key("kind", "scope2", {"a": 1}, seed=0) != base
        assert artifact_key("kind", "scope", {"a": 2}, seed=0) != base
        assert artifact_key("kind", "scope", {"a": 1}, seed=1) != base

    def test_training_seed_deterministic_and_bounded(self):
        key = artifact_key("kind", "scope", {})
        assert training_seed(key) == training_seed(key)
        assert 0 <= training_seed(key) < 2**63


# --------------------------------------------------------------------- #
# Store mechanics
# --------------------------------------------------------------------- #


class TestArtifactStore:
    def test_memory_round_trip_and_stats(self):
        store = ArtifactStore()
        assert store.get("k1") is None
        store.put("k1", {"x": 1, "arr": np.arange(3.0)})
        payload = store.get("k1")
        assert payload["x"] == 1
        np.testing.assert_array_equal(payload["arr"], np.arange(3.0))
        assert store.stats.misses == 1
        assert store.stats.memory_hits == 1
        assert store.stats.puts == 1

    def test_lru_eviction(self, tmp_path, monkeypatch):
        """A memory-only store keeps every payload (its memory tier is its
        only copy); a directory-backed store's memory tier is an LRU whose
        evicted keys come back from disk."""
        monkeypatch.setattr(store_module, "LRU_MAX_ENTRIES", 2)
        memory = ArtifactStore()
        for i in range(3):
            memory.put(f"k{i}", {"i": i})
        assert len(memory) == 3
        assert memory.stats.evictions == 0
        assert memory.get("k0")["i"] == 0
        assert memory.stats.memory_hits == 1

        backed = ArtifactStore(directory=tmp_path)
        for i in range(3):
            backed.put(f"k{i}", {"i": i})
        assert len(backed) == 2
        assert backed.stats.evictions == 1
        assert backed.get("k0")["i"] == 0  # evicted from memory, read from disk
        assert backed.stats.disk_hits == 1
        assert backed.get("k2")["i"] == 2

    def test_disk_round_trip_fresh_store(self, tmp_path):
        a = ArtifactStore(directory=tmp_path)
        a.put("deadbeef", {"nested": {"arr": np.ones((2, 2))}, "n": 5}, kind="t")
        # A *fresh* store on the same directory has an empty LRU: the read
        # must come from disk and be promoted.
        b = ArtifactStore(directory=tmp_path)
        payload = b.get("deadbeef")
        assert payload["n"] == 5
        np.testing.assert_array_equal(payload["nested"]["arr"], np.ones((2, 2)))
        assert b.stats.disk_hits == 1
        assert b.get("deadbeef") is payload  # now served from memory
        assert b.stats.memory_hits == 1

    def test_compressed_object_still_reads(self, tmp_path):
        """Objects were once written with ``np.savez_compressed``; such an
        object in the store's layout is a disk hit with the same payload."""
        table = np.random.default_rng(0).uniform(size=(5, 3))
        payload = {"config": {"dim": 3}, "table": table, "words": ["a", "é"]}
        store = ArtifactStore(directory=tmp_path)
        path = store.object_path("c0de")
        path.parent.mkdir(parents=True)
        arrays = {}
        state = flatten_arrays(payload, arrays, sort_keys=True)
        with open(path, "wb") as f:
            np.savez_compressed(f, **arrays, __state__=np.array(state))
        with zipfile.ZipFile(path) as z:
            assert {i.compress_type for i in z.infolist()} == {zipfile.ZIP_DEFLATED}

        got = store.get("c0de")
        assert store.stats.disk_hits == 1
        assert store.stats.corrupt_dropped == 0
        assert got["config"] == {"dim": 3} and got["words"] == ["a", "é"]
        assert got["table"].tobytes() == table.tobytes()

    def test_objects_written_uncompressed(self, tmp_path):
        store = ArtifactStore(directory=tmp_path)
        store.put("5707", {"table": np.arange(100.0), "name": "x" * 100})
        with zipfile.ZipFile(store.object_path("5707")) as z:
            assert {i.compress_type for i in z.infolist()} == {zipfile.ZIP_STORED}

    def test_clear_memory_keeps_disk(self, tmp_path):
        store = ArtifactStore(directory=tmp_path)
        store.put("cafe", {"v": 1})
        store.clear_memory()
        assert len(store) == 0
        assert store.get("cafe")["v"] == 1
        assert store.stats.disk_hits == 1

    def test_corrupt_object_is_a_miss(self, tmp_path):
        store = ArtifactStore(directory=tmp_path)
        store.put("f00d", {"v": 1})
        path = store.object_path("f00d")
        path.write_bytes(b"definitely not a zip file")
        store.clear_memory()
        assert store.get("f00d") is None
        assert store.stats.corrupt_dropped == 1
        assert not path.exists()  # dropped, so the next put rewrites it
        store.put("f00d", {"v": 2})
        store.clear_memory()
        assert store.get("f00d")["v"] == 2

    def test_truncated_object_is_a_miss(self, tmp_path):
        store = ArtifactStore(directory=tmp_path)
        store.put("0b57", {"arr": np.arange(100.0)})
        path = store.object_path("0b57")
        path.write_bytes(path.read_bytes()[:20])  # partial write remnant
        store.clear_memory()
        assert store.get("0b57") is None
        assert store.stats.corrupt_dropped == 1

    def test_read_failure_keeps_the_object(self, tmp_path, monkeypatch):
        """Only damaged content is dropped: a read that fails for another
        reason (here the ``SystemError`` two threads in numpy's header
        parse can raise) is a miss that leaves the object on disk."""
        store = ArtifactStore(directory=tmp_path)
        store.put("5e11", {"arr": np.arange(10.0)})
        store.clear_memory()
        calls = []

        def fail_once(path):
            calls.append(path)
            if len(calls) == 1:
                raise SystemError("AST constructor recursion depth mismatch")
            return load_npz(path)

        monkeypatch.setattr(store_module, "load_npz", fail_once)
        assert store.get("5e11") is None
        assert store.stats.read_errors == 1
        assert store.stats.corrupt_dropped == 0
        assert store.object_path("5e11").exists()
        assert store.get("5e11")["arr"].tobytes() == np.arange(10.0).tobytes()
        assert store.stats.disk_hits == 1 and len(calls) == 2

    def test_index_manifest(self, tmp_path):
        store = ArtifactStore(directory=tmp_path)
        store.put("aa11", {"v": 1}, kind="embedding/char", meta={"column": "zip"})
        store.put("aa11", {"v": 2}, kind="embedding/char")  # latest wins
        store.put("bb22", {"v": 3}, kind="featurizer/cooccurrence")
        with store.index_path.open("a", encoding="utf-8") as f:
            f.write("{corrupt json\n")  # tolerated tail
        records = {r["key"]: r for r in store.index()}
        assert set(records) == {"aa11", "bb22"}
        assert records["bb22"]["kind"] == "featurizer/cooccurrence"
        assert records["aa11"]["nbytes"] > 0

    def test_disk_write_failure_degrades_not_raises(self, tmp_path, monkeypatch):
        """The store is an accelerator: a full/readonly disk mid-sweep must
        cost wall-clock, never fail the fit that produced the payload."""
        store = ArtifactStore(directory=tmp_path)

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(store, "_write_object", explode)
        store.put("abcd", {"v": 7})  # must not raise
        assert store.stats.write_errors == 1
        assert store.stats.puts == 1
        assert store.get("abcd")["v"] == 7  # memory tier still serves

    def test_ambient_store_context(self):
        assert get_default_store() is None
        store = ArtifactStore()
        with use_store(store):
            assert get_default_store() is store
            with use_store(None):
                assert get_default_store() is None
            assert get_default_store() is store
        assert get_default_store() is None


# --------------------------------------------------------------------- #
# Fit-path integration
# --------------------------------------------------------------------- #


class TestWarmFit:
    def test_store_does_not_change_predictions(self, small_bundle, small_split):
        _, plain = fit_and_predict(small_bundle, small_split)
        _, stored = fit_and_predict(
            small_bundle, small_split, artifact_store=ArtifactStore()
        )
        assert plain.probabilities.tobytes() == stored.probabilities.tobytes()

    def test_warm_fit_bit_identical(self, small_bundle, small_split):
        store = ArtifactStore()
        _, cold = fit_and_predict(small_bundle, small_split, artifact_store=store)
        assert store.stats.puts > 0
        detector, warm = fit_and_predict(
            small_bundle, small_split, artifact_store=store
        )
        assert cold.probabilities.tobytes() == warm.probabilities.tobytes()
        # The warm fit trained no embeddings: every consulted key hit.
        assert store.stats.hits >= len(detector.artifact_keys)

    def test_round_trip_evict_reload(self, tmp_path, small_bundle, small_split):
        """store → evict (fresh process ≙ fresh LRU) → reload → identical."""
        _, cold = fit_and_predict(
            small_bundle, small_split, artifact_store=ArtifactStore(directory=tmp_path)
        )
        reloaded_store = ArtifactStore(directory=tmp_path)  # empty memory tier
        _, warm = fit_and_predict(
            small_bundle, small_split, artifact_store=reloaded_store
        )
        assert cold.probabilities.tobytes() == warm.probabilities.tobytes()
        assert reloaded_store.stats.disk_hits > 0
        assert reloaded_store.stats.misses == 0

    def test_corrupt_artifact_refits_identically(
        self, tmp_path, small_bundle, small_split
    ):
        store = ArtifactStore(directory=tmp_path)
        _, cold = fit_and_predict(small_bundle, small_split, artifact_store=store)
        # Corrupt every on-disk object; a fresh store must shrug and refit.
        for path in (tmp_path / "objects").rglob("*.npz"):
            path.write_bytes(b"garbage")
        damaged = ArtifactStore(directory=tmp_path)
        _, refit = fit_and_predict(small_bundle, small_split, artifact_store=damaged)
        assert cold.probabilities.tobytes() == refit.probabilities.tobytes()
        assert damaged.stats.corrupt_dropped > 0

    def test_artifact_dir_config_field(self, tmp_path, small_bundle, small_split):
        d1, p1 = fit_and_predict(
            small_bundle, small_split, artifact_dir=str(tmp_path / "store")
        )
        d2, p2 = fit_and_predict(
            small_bundle, small_split, artifact_dir=str(tmp_path / "store")
        )
        assert p1.probabilities.tobytes() == p2.probabilities.tobytes()
        assert d2.artifact_stats is not None and d2.artifact_stats.disk_hits > 0

    def test_ambient_store_used_by_detector(self, small_bundle, small_split):
        store = ArtifactStore()
        with use_store(store):
            fit_and_predict(small_bundle, small_split)
        assert store.stats.puts > 0

    def test_own_store_wins_and_ambient_is_restored(self, small_bundle, small_split):
        """A detector's own store is the one its fit consults, installed
        for the fit only: the ambient store it found gets nothing and is
        back in place afterwards."""
        ambient, own = ArtifactStore(), ArtifactStore()
        with use_store(ambient):
            fit_and_predict(small_bundle, small_split, artifact_store=own)
            assert get_default_store() is ambient
        assert own.stats.puts > 0
        assert ambient.stats.lookups == ambient.stats.puts == 0

    def test_artifact_keys_recorded(self, small_bundle, small_split):
        detector, _ = fit_and_predict(
            small_bundle, small_split, artifact_store=ArtifactStore()
        )
        keys = detector.artifact_keys
        attrs = small_bundle.dirty.attributes
        for attr in attrs:
            assert f"char_embedding/{attr}" in keys
            assert f"word_embedding/{attr}" in keys
        for whole in ("tuple_embedding", "neighborhood", "cooccurrence"):
            assert whole in keys
        assert all(len(k) == 64 for k in keys.values())

    def test_artifact_keys_recorded_without_store(self, small_bundle, small_split):
        """Keys derive from content + config alone — no store needed."""
        with_store, _ = fit_and_predict(
            small_bundle, small_split, artifact_store=ArtifactStore()
        )
        without, _ = fit_and_predict(small_bundle, small_split)
        assert with_store.artifact_keys == without.artifact_keys

    def test_use_artifacts_attaches_to_loaded_detector(
        self, tmp_path, small_bundle, small_split
    ):
        """The rescore-with-saved-model path: a store attached after load
        is consulted by refresh-time refits."""
        from repro.dataset.table import Cell
        from repro.persistence import load_detector, save_detector

        detector, _ = fit_and_predict(small_bundle, small_split)
        save_detector(detector, tmp_path / "model")
        store = ArtifactStore(directory=tmp_path / "art")
        loaded = load_detector(tmp_path / "model", small_bundle.dirty)
        loaded.use_artifacts(store)
        session = DetectionSession(loaded)
        attr = small_bundle.dirty.attributes[0]
        session.apply({Cell(0, attr): "edited-value"}, refresh=True)
        assert store.stats.puts > 0  # refit states went through the store
        # Provenance keys were refreshed for the refitted models.
        assert f"char_embedding/{attr}" in loaded.artifact_keys

    def test_loaded_detector_reattaches_config_store(
        self, tmp_path, small_bundle, small_split
    ):
        """A saved config's artifact_dir survives the load: refresh-time
        refits consult the store without any explicit re-attachment."""
        from repro.dataset.table import Cell
        from repro.persistence import load_detector, save_detector

        art_dir = str(tmp_path / "art")
        detector, _ = fit_and_predict(small_bundle, small_split, artifact_dir=art_dir)
        save_detector(detector, tmp_path / "model")
        loaded = load_detector(tmp_path / "model", small_bundle.dirty)
        store = loaded.artifacts
        assert store is not None and str(store.directory) == art_dir
        attr = small_bundle.dirty.attributes[0]
        session = DetectionSession(loaded)
        session.apply({Cell(0, attr): "reattach-edit"}, refresh=True)
        assert store.stats.lookups > 0  # refits went through the store

    def test_embedding_keys_cover_full_training_config(self):
        """Every FastTextEmbedding training knob enters the key config, so
        a changed default can never serve stale weights."""
        import inspect

        from repro.embeddings.fasttext import FastTextEmbedding
        from repro.features.attribute import CharEmbeddingFeaturizer

        config = CharEmbeddingFeaturizer(dim=4, epochs=1)._embedding_config()
        knobs = set(inspect.signature(FastTextEmbedding.__init__).parameters)
        knobs -= {"self", "rng"}  # rng is replaced by the derived seed
        assert knobs <= set(config), f"missing knobs: {knobs - set(config)}"

    def test_whole_state_refresh_consults_store(self, small_bundle):
        """Base-class refresh (cooccurrence) goes through the store: a
        reverted edit is served, not retrained."""
        from repro.dataset.table import Cell, DatasetDelta
        from repro.features.tuple_level import CooccurrenceFeaturizer

        dataset = small_bundle.dirty.copy()
        store = ArtifactStore()
        featurizer = CooccurrenceFeaturizer()
        with use_store(store):
            featurizer.fit_through_store(dataset)
            attr = dataset.attributes[0]
            original = dataset.value(Cell(0, attr))
            delta = dataset.apply_edits({Cell(0, attr): original + "-x"})
            assert featurizer.refresh(dataset, delta)
            stored_after_edit = store.stats.puts
            assert stored_after_edit == 2  # initial fit + refit both stored
            revert = dataset.apply_edits({Cell(0, attr): original})
            hits_before = store.stats.hits
            assert featurizer.refresh(dataset, revert)
        assert store.stats.hits == hits_before + 1  # served, not retrained
        assert store.stats.puts == stored_after_edit

    def test_saved_detector_records_artifact_keys(
        self, tmp_path, small_bundle, small_split
    ):
        from repro.persistence import load_detector, save_detector

        detector, _ = fit_and_predict(
            small_bundle, small_split, artifact_store=ArtifactStore()
        )
        save_detector(detector, tmp_path / "model")
        state = json.loads((tmp_path / "model" / "state.json").read_text())
        assert state["artifact_keys"] == detector.artifact_keys
        loaded = load_detector(tmp_path / "model", small_bundle.dirty)
        assert loaded.artifact_keys == detector.artifact_keys

    def test_column_scoped_invalidation(self, small_bundle, small_split):
        """Editing one column changes only that column's embedding keys."""
        store = ArtifactStore()
        detector, _ = fit_and_predict(
            small_bundle, small_split, artifact_store=store
        )
        before = detector.artifact_keys
        edited = small_bundle.dirty.copy()
        attr = edited.attributes[0]
        from repro.dataset.table import Cell

        edited.set_value(Cell(0, attr), "completely-new-value")
        fresh = HoloDetect(DetectorConfig(**TINY)).use_artifacts(store)
        fresh.fit(edited, small_split.training, small_bundle.constraints)
        after = fresh.artifact_keys
        assert after[f"char_embedding/{attr}"] != before[f"char_embedding/{attr}"]
        assert after[f"word_embedding/{attr}"] != before[f"word_embedding/{attr}"]
        untouched = edited.attributes[1]
        assert (
            after[f"char_embedding/{untouched}"]
            == before[f"char_embedding/{untouched}"]
        )
        # Relation-wide artifacts see any change.
        assert after["tuple_embedding"] != before["tuple_embedding"]


# --------------------------------------------------------------------- #
# The store-or-build seam over a real fit
# --------------------------------------------------------------------- #


class RecordingStore(ArtifactStore):
    """A memory-only store (which keeps every payload) that remembers which
    keys were put."""

    def __init__(self):
        super().__init__()
        self.stored: list[str] = []

    def put(self, key, payload, **kwargs):
        self.stored.append(key)
        super().put(key, payload, **kwargs)


@pytest.fixture(scope="module")
def pinned_relation(tmp_path_factory):
    """A small fixed hospital relation and its 3-shard twin (5, 5, 2 rows)."""
    from repro.dataset import ShardedDataset

    bundle = load_dataset("hospital", num_rows=12, seed=0)
    twin = ShardedDataset.convert(
        bundle.dirty, tmp_path_factory.mktemp("pinned") / "twin", shard_rows=5
    )
    return bundle, twin


def fit_pipeline(relation, constraints, store):
    from repro.features.pipeline import default_pipeline

    pipeline = default_pipeline(constraints, embedding_dim=4, embedding_epochs=1)
    with use_store(store):
        return pipeline.fit(relation)


class TestStoreOrBuild:
    def test_real_fit_keys_are_pinned(self, pinned_relation):
        """Keys and fingerprints of a real fit, in memory and sharded, never
        move: a store warmed by any earlier version must keep serving."""
        import hashlib

        from repro.utils.specfile import canonical_json

        def digest(mapping):
            return hashlib.sha256(canonical_json(mapping).encode()).hexdigest()

        bundle, twin = pinned_relation
        dirty = bundle.dirty
        for relation in (dirty, twin):
            assert relation.fingerprint() == "75dd7683f6702cbef28690509c74dfb3"
            assert relation.column_fingerprint("ZipCode") == (
                "b2350043f6aee42b0e24bf1ef2efc8df"
            )
            assert digest(
                {a: relation.column_fingerprint(a) for a in relation.attributes}
            ) == "9eab6c4ec98eea92fe61da2db53847fe3175b6b10a88fea145cd965ccde758b8"
        mem = fit_pipeline(dirty, bundle.constraints, ArtifactStore()).artifact_keys
        sharded = fit_pipeline(twin, bundle.constraints, ArtifactStore()).artifact_keys
        # 19 columns x (char, word) + tuple, neighborhood and the two
        # whole states, the same in both backings.
        assert len(mem) == 42
        assert sharded == mem
        assert digest(mem) == (
            "d3a6fa873c5440a588b81336c7c4aec379d9173d18fa9dd7d6ab127a87ce011f"
        )
        assert {
            label: sharded[label]
            for label in (
                "char_embedding/ZipCode",
                "word_embedding/ZipCode",
                "tuple_embedding",
                "neighborhood",
                "cooccurrence",
                "constraint_violations",
            )
        } == {
            "char_embedding/ZipCode":
                "568da061342e7a853c2e482d5077e576ad2082fd1fa150407a3b38169dfa120c",
            "word_embedding/ZipCode":
                "ddd3c48e0fef1199ad5d8e1bea2e6c51686ddbc113f96bb82d3317f36b6e1b93",
            "tuple_embedding":
                "f044ce883a6830543740f85523d3cc54c27e7e900ad04a7a568a4f723d2ec5c5",
            "neighborhood":
                "e103a88676f891d21898fadfece9489d310f1d412d8b17c57194d6e94fee2847",
            "cooccurrence":
                "b1a6b2fe16646bc678f33084d75a1d5f1170637d3d43512c184d4a1a4575c7f9",
            "constraint_violations":
                "97bb6f133da5adc6381481aeccc78b2c7d455ecd70a8f4a584c250f44d0e22ab",
        }

    @pytest.mark.parametrize("shard_rows", [1, 5, 12])
    def test_sharded_fit_records_its_twins_keys(
        self, pinned_relation, tmp_path, shard_rows
    ):
        """At every shard size a sharded fit derives exactly the keys of
        its in-memory twin, and stores nothing per shard."""
        from repro.dataset import ShardedDataset

        bundle, _ = pinned_relation
        twin = ShardedDataset.convert(
            bundle.dirty, tmp_path / "twin", shard_rows=shard_rows
        )
        store = ArtifactStore(tmp_path / "store")
        sharded = fit_pipeline(twin, bundle.constraints, store).artifact_keys
        mem = fit_pipeline(bundle.dirty, bundle.constraints, ArtifactStore())
        assert sharded == mem.artifact_keys
        kinds = {record["kind"] for record in store.index()}
        assert "featurizer/cooccurrence" in kinds
        assert not [kind for kind in kinds if kind.endswith(".partial")]

    def test_memory_only_store_serves_a_whole_refit(
        self, pinned_relation, monkeypatch
    ):
        """The sharded twin's cold fit stores more artifacts than a
        bounded memory tier keeps; a memory-only store keeps them all, so
        the refit hits every lookup and stores nothing."""
        monkeypatch.setattr(store_module, "LRU_MAX_ENTRIES", 8)
        bundle, twin = pinned_relation
        store = ArtifactStore()
        cold = fit_pipeline(twin, bundle.constraints, store)
        assert len(cold.artifact_keys) == 42  # a memory tier of 8 would evict
        assert store.stats.evictions == 0
        before = dataclasses.replace(store.stats)
        fit_pipeline(twin, bundle.constraints, store)
        assert store.stats.lookups > before.lookups
        assert store.stats.misses == before.misses
        assert store.stats.puts == before.puts

    def test_undecodable_payload_is_a_miss_for_every_kind(self, pinned_relation):
        """Junk under an embedding key and both whole-state keys: each is
        rebuilt and overwritten, nothing else is stored, and the refit
        pipeline transforms bit-identically."""
        bundle, twin = pinned_relation
        store = RecordingStore()
        cold = fit_pipeline(twin, bundle.constraints, store)
        keys = cold.artifact_keys
        junk = [
            keys[label]
            for label in (
                "char_embedding/ZipCode",
                "cooccurrence",
                "constraint_violations",
            )
        ]
        for key in junk:
            store.put(key, {"junk": [1, 2, 3]})
        store.stored.clear()
        refit = fit_pipeline(twin, bundle.constraints, store)
        assert sorted(store.stored) == sorted(junk)
        assert all("junk" not in store.get(key) for key in junk)
        assert refit.artifact_keys == keys
        cells = list(twin.cells())
        a, b = cold.transform(cells, twin), refit.transform(cells, twin)
        assert a.numeric.tobytes() == b.numeric.tobytes()
        assert a.branches.keys() == b.branches.keys()
        for branch in a.branches:
            assert a.branches[branch].tobytes() == b.branches[branch].tobytes()


    def test_misshapen_embedding_payload_is_rebuilt(self, small_bundle, small_split):
        """An embedding payload whose in_table lost rows, and one whose
        config carries an unknown key, are misses: both are retrained and
        overwritten, and the refit predicts exactly as a cold fit."""
        store = RecordingStore()
        cold, expected = fit_and_predict(small_bundle, small_split, store)
        keys = cold.artifact_keys
        cut = keys["char_embedding/ZipCode"]
        unknown = keys["word_embedding/City"]
        char, word = store.get(cut), store.get(unknown)
        store.put(cut, {**char, "in_table": char["in_table"][:10]})
        store.put(unknown, {**word, "config": {**word["config"], "colour": 1}})
        store.stored.clear()
        _, refit = fit_and_predict(small_bundle, small_split, store)
        assert sorted(store.stored) == sorted([cut, unknown])
        assert store.get(cut)["in_table"].tobytes() == char["in_table"].tobytes()
        assert store.get(unknown)["config"] == word["config"]
        assert refit.cells == expected.cells
        assert refit.probabilities.tobytes() == expected.probabilities.tobytes()


# --------------------------------------------------------------------- #
# Sweep integration
# --------------------------------------------------------------------- #

SWEEP_SPEC = {
    "datasets": [{"name": "hospital", "rows": 50}],
    "error_profiles": ["native"],
    "label_budgets": [0.15],
    "methods": [
        {"name": "holodetect", "epochs": 2, "embedding_dim": 4,
         "min_training_steps": 20},
        {"name": "superl", "epochs": 2, "embedding_dim": 4,
         "min_training_steps": 20},
    ],
    "trials": 2,
    "seed": 5,
}

ACCURACY_FIELDS = ("fingerprint", "spec", "metrics", "trials", "mean_f1", "std_f1")


def accuracy_view(records):
    return [{k: r[k] for k in ACCURACY_FIELDS} for r in records]


class TestSweepArtifacts:
    @pytest.fixture(scope="class")
    def matrix(self):
        return ScenarioMatrix.from_dict(SWEEP_SPEC)

    @pytest.fixture(scope="class")
    def cold(self, matrix):
        return run_matrix(matrix, executor="serial")

    def test_serial_sweep_with_artifacts_identical(self, matrix, cold, tmp_path):
        warm = run_matrix(matrix, executor="serial", artifact_dir=tmp_path / "a")
        assert accuracy_view(warm.records) == accuracy_view(cold.records)
        assert warm.artifacts is not None
        stats = warm.artifacts["stats"]
        # Methods and trials share one dirty relation: the sweep must reuse
        # fits, not just store them.
        assert stats["hits"] > 0 and stats["puts"] > 0

    def test_two_worker_shared_dir_identical(self, matrix, cold, tmp_path):
        parallel = run_matrix(
            matrix, workers=2, executor="process", artifact_dir=tmp_path / "b"
        )
        assert parallel.workers == 2
        assert accuracy_view(parallel.records) == accuracy_view(cold.records)
        assert parallel.artifacts is not None
        # Worker-side counters made it back to the coordinator.
        assert parallel.artifacts["stats"]["puts"] > 0

    def test_coordinated_process_pool_shared_dir_identical(
        self, matrix, cold, tmp_path
    ):
        coordinated = run_matrix(
            matrix,
            store=ResultStore(tmp_path / "store.jsonl"),
            workers=2,
            executor="process",
            artifact_dir=tmp_path / "c",
            coordinate=CoordinateOptions(worker_id="pool", ttl=30.0, poll_interval=0.05),
        )
        assert coordinated.workers == 2 and coordinated.executed == 2
        assert accuracy_view(coordinated.records) == accuracy_view(cold.records)
        assert coordinated.artifacts["stats"]["puts"] > 0

    # A sweep runs inline or on a process pool, and the tests above cover
    # both.  The artifact store itself is thread-safe (locked), which
    # TestArtifactStore covers directly.

    def test_inline_and_pool_stats_share_one_shape(self, matrix, cold, tmp_path):
        """Both pools total the store counters the same way: the report's
        ``artifacts.stats`` has the same keys and JSON types (``degraded``
        a bool), and the records stay bit-identical."""
        inline = run_matrix(matrix, workers=1, artifact_dir=tmp_path / "e")
        pooled = run_matrix(matrix, workers=2, artifact_dir=tmp_path / "f")
        assert (inline.workers, pooled.workers) == (1, 2)
        shapes = []
        for report in (inline, pooled):
            stats = json.loads(json.dumps(report.to_json()))["artifacts"]["stats"]
            assert stats["degraded"] is False
            assert stats["puts"] > 0
            shapes.append({key: type(value) for key, value in stats.items()})
        assert shapes[0] == shapes[1]
        assert accuracy_view(inline.records) == accuracy_view(cold.records)
        assert accuracy_view(pooled.records) == accuracy_view(cold.records)

    def test_lr_scenario_consults_the_sweep_store(self, tmp_path):
        """A method that builds its own feature pipeline (the LR baseline)
        fits through the sweep's store too, and its record does not move."""
        matrix = ScenarioMatrix.from_dict({**SWEEP_SPEC, "methods": ["lr"]})
        plain = run_matrix(matrix, executor="serial")
        stored = run_matrix(matrix, executor="serial", artifact_dir=tmp_path / "lr")
        assert accuracy_view(stored.records) == accuracy_view(plain.records)
        stats = stored.artifacts["stats"]
        assert stats["puts"] > 0 and stats["hits"] > 0

    def test_report_json_additive(self, matrix, cold, tmp_path):
        payload = cold.to_json()
        assert "artifacts" not in payload
        warm = run_matrix(matrix, executor="serial", artifact_dir=tmp_path / "d")
        assert warm.to_json()["artifacts"]["dir"] == str(tmp_path / "d")


# --------------------------------------------------------------------- #
# Spec integration
# --------------------------------------------------------------------- #


class TestSpecArtifacts:
    def test_artifacts_table_not_fingerprinted(self):
        from repro.spec import DetectorSpec

        plain = DetectorSpec.from_dict({"schema": "repro.spec/v1"})
        with_store = DetectorSpec.from_dict(
            {"schema": "repro.spec/v1", "artifacts": {"dir": "x/y"}}
        )
        assert plain.fingerprint() == with_store.fingerprint()
        assert with_store.to_dict()["artifacts"] == {"dir": "x/y"}
        assert "artifacts" not in plain.to_dict()

    def test_from_spec_applies_artifact_dir(self, tmp_path):
        from repro.spec import DetectorSpec

        spec = DetectorSpec.from_dict(
            {"schema": "repro.spec/v1", "artifacts": {"dir": str(tmp_path)}}
        )
        detector = HoloDetect.from_spec(spec)
        assert detector.config.artifact_dir == str(tmp_path)
        assert detector.artifacts is not None
        assert detector.artifacts.directory == tmp_path

    def test_unknown_artifact_keys_rejected(self):
        from repro.spec import DetectorSpec, SpecError

        with pytest.raises(SpecError, match=r"\[artifacts\].*unknown"):
            DetectorSpec.from_dict(
                {"schema": "repro.spec/v1", "artifacts": {"directory": "x"}}
            )

    def test_bad_dir_type_rejected(self):
        from repro.spec import DetectorSpec, SpecError

        with pytest.raises(SpecError, match="dir must be a string"):
            DetectorSpec.from_dict(
                {"schema": "repro.spec/v1", "artifacts": {"dir": 3}}
            )

    def test_detector_table_store_fields_rejected(self):
        """The store location must never enter the fingerprinted [detector]
        table — both the file path and direct construction are guarded —
        and a live store is no config field at all."""
        from repro.spec import DetectorSpec, SpecError

        with pytest.raises(SpecError, match="not spec-able"):
            DetectorSpec.from_dict(
                {"schema": "repro.spec/v1", "detector": {"artifact_dir": "x"}}
            )
        with pytest.raises(SpecError, match="not spec-able"):
            DetectorSpec(detector={"artifact_dir": "x"}).validate()
        with pytest.raises(SpecError, match="unexpected keyword argument 'artifact_store'"):
            DetectorSpec.from_dict(
                {"schema": "repro.spec/v1", "detector": {"artifact_store": "x"}}
            )
        with pytest.raises(TypeError):
            HoloDetect(DetectorConfig(artifact_store=ArtifactStore()))
