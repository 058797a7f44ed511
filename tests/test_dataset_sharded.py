"""Out-of-core sharded relations (:mod:`repro.dataset.sharded`).

The backing's whole contract is *indistinguishability*: a sharded relation
must produce bit-identical fingerprints, featurizer fits, and predictions
to the in-memory :class:`~repro.dataset.table.Dataset` holding the same
rows — for every shard size.  Property tests drive that invariance with
hypothesis-generated tables; fixed tests cover the ingestion path, the
manifest reader, the immutability guard and the registry kind.
"""

import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.registry import load_dataset
from repro.dataset import Cell, Dataset, ShardedDataset, open_relation
from repro.dataset.loader import read_csv, write_csv
from repro.dataset.counts import cooccurrence, fd_groups
from repro.dataset.relation import ShardSpan, hash_column
from repro.features.dataset_level import ConstraintViolationFeaturizer
from repro.faults import RetryPolicy, inject, use_policy
from repro.features.tuple_level import CooccurrenceFeaturizer

# Small random tables: 2-3 attributes, clumpy values so co-occurrence and
# FD groups are non-trivial.
_values = st.sampled_from(["a", "b", "ab", "x1", ""])
_tables = st.lists(
    st.tuples(_values, _values, _values), min_size=1, max_size=24
).map(lambda rows: Dataset.from_rows(["p", "q", "r"], [list(r) for r in rows]))
_shard_rows = st.integers(min_value=1, max_value=9)


def _sharded_twin(dataset, tmp_path, shard_rows, name="twin"):
    return ShardedDataset.convert(dataset, tmp_path / name, shard_rows=shard_rows)


class TestFingerprintInvariance:
    @given(dataset=_tables, shard_rows=_shard_rows)
    @settings(max_examples=30, deadline=None)
    def test_fingerprints_match_in_memory(self, dataset, shard_rows, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("shards")
        sharded = _sharded_twin(dataset, tmp, shard_rows)
        for attr in dataset.attributes:
            assert sharded.column_fingerprint(attr) == dataset.column_fingerprint(attr)
        assert sharded.fingerprint() == dataset.fingerprint()
        rows = range(dataset.num_rows)
        assert sharded.rows_fingerprint(rows) == dataset.rows_fingerprint(rows)
        assert sharded == dataset
        assert dataset == sharded

    @given(dataset=_tables, a=_shard_rows, b=_shard_rows)
    @settings(max_examples=20, deadline=None)
    def test_shard_size_never_changes_fingerprint(
        self, dataset, a, b, tmp_path_factory
    ):
        tmp = tmp_path_factory.mktemp("shards")
        fp_a = _sharded_twin(dataset, tmp, a, "a").fingerprint()
        fp_b = _sharded_twin(dataset, tmp, b, "b").fingerprint()
        assert fp_a == fp_b

    @given(dataset=_tables, shard_rows=_shard_rows)
    @settings(max_examples=20, deadline=None)
    def test_shard_digests_compose(self, dataset, shard_rows, tmp_path_factory):
        """The manifest's per-shard digests, which ``verify`` re-checks, are
        exactly what the in-memory backing derives from the same spans."""
        tmp = tmp_path_factory.mktemp("shards")
        sharded = _sharded_twin(dataset, tmp, shard_rows)
        for span in sharded.shard_spans():
            assert sharded.manifest["shards"][span.index]["digests"] == [
                hash_column(dataset.column(attr)[span.start : span.stop])
                for attr in dataset.attributes
            ]

    def test_in_memory_is_one_span(self, tmp_path):
        dataset = Dataset.from_rows(["x"], [["1"], ["2"]])
        assert dataset.shard_spans() == (ShardSpan(0, 0, 2),)


def _ordered(table):
    """A nested count table as nested item lists, so ``==`` compares
    iteration order too."""
    if isinstance(table, dict):
        return [(key, _ordered(value)) for key, value in table.items()]
    if isinstance(table, tuple):
        return tuple(_ordered(part) for part in table)
    return table


class TestCountsAcrossSpans:
    @given(dataset=_tables, shard_rows=_shard_rows)
    @settings(max_examples=25, deadline=None)
    def test_spans_count_the_one_span_tables(
        self, dataset, shard_rows, tmp_path_factory
    ):
        """``cooccurrence`` and ``fd_groups`` of a relation read in several
        spans equal those of its one-span twin, iteration order included."""
        sharded = _sharded_twin(dataset, tmp_path_factory.mktemp("shards"), shard_rows)
        assert _ordered(cooccurrence(sharded)) == _ordered(cooccurrence(dataset))
        for join_attrs in (["p"], ["p", "r"]):
            assert _ordered(fd_groups(sharded, join_attrs, "q")) == (
                _ordered(fd_groups(dataset, join_attrs, "q"))
            )


@pytest.fixture(scope="module")
def hospital():
    return load_dataset("hospital", num_rows=60, seed=3)


class TestFeaturizerEquivalence:
    def test_cooccurrence_fit_matches_in_memory(self, hospital, tmp_path):
        sharded = _sharded_twin(hospital.dirty, tmp_path, 17)
        mem = CooccurrenceFeaturizer().fit(hospital.dirty)
        cold = CooccurrenceFeaturizer().fit(sharded)
        assert cold._joint == mem._joint
        assert cold._value_counts == mem._value_counts

    def test_constraint_violations_fit_matches_in_memory(self, hospital, tmp_path):
        sharded = _sharded_twin(hospital.dirty, tmp_path, 17)
        mem = ConstraintViolationFeaturizer(hospital.constraints).fit(hospital.dirty)
        cold = ConstraintViolationFeaturizer(hospital.constraints).fit(sharded)
        assert np.array_equal(mem._tuple_counts, cold._tuple_counts)
        for a, b in zip(mem._fd_indexes, cold._fd_indexes):
            assert (a is None) == (b is None)
            if a is not None:
                assert a["groups"] == b["groups"]

    def test_group_counts_match_the_engine(self, hospital, tmp_path):
        """FD-shaped constraints are counted from group tables, the others
        by the engine: on hospital's Σ and on a mixed Σ the counts equal
        the engine's pairwise counts, in memory and sharded."""
        from repro.constraints import ViolationEngine, parse_denial_constraint

        a = hospital.dirty.attributes
        mixed = [
            parse_denial_constraint(f"t1.{a[0]} == t2.{a[0]} & t1.{a[1]} > t2.{a[1]}"),
            *hospital.constraints,
            parse_denial_constraint(
                f"t1.{a[3]} == t2.{a[3]} & t1.{a[4]} != t2.{a[4]} & t1.{a[5]} < t2.{a[5]}"
            ),
        ]
        for k, sigma in enumerate((hospital.constraints, mixed)):
            engine = ViolationEngine(sigma).tuple_violation_counts(hospital.dirty)
            mem = ConstraintViolationFeaturizer(sigma).fit(hospital.dirty)
            assert mem._tuple_counts.tobytes() == engine.tobytes()
            sharded = ConstraintViolationFeaturizer(sigma).fit(
                _sharded_twin(hospital.dirty, tmp_path / f"twin{k}", 17)
            )
            assert sharded._tuple_counts.tobytes() == engine.tobytes()
            assert sharded._fd_indexes == mem._fd_indexes
        # Only the FD-shaped constraints carry a group index.
        assert [i is None for i in mem._fd_indexes] == [True] + [
            False
        ] * len(hospital.constraints) + [True]

    def test_constraint_violations_without_store(self, hospital, tmp_path):
        sharded = _sharded_twin(hospital.dirty, tmp_path, 23)
        mem = ConstraintViolationFeaturizer(hospital.constraints).fit(hospital.dirty)
        cold = ConstraintViolationFeaturizer(hospital.constraints).fit(sharded)
        assert np.array_equal(mem._tuple_counts, cold._tuple_counts)


class TestDetectorEquivalence:
    @pytest.fixture(scope="class")
    def fitted(self, tmp_path_factory):
        from repro.core.detector import DetectorConfig, HoloDetect
        from repro.evaluation.splits import make_split

        bundle = load_dataset("hospital", num_rows=40, seed=5)
        tmp = tmp_path_factory.mktemp("detector")
        sharded = ShardedDataset.convert(bundle.dirty, tmp / "shards", shard_rows=13)
        split = make_split(bundle, 0.2, rng=7)

        def build():
            return HoloDetect(
                DetectorConfig(
                    epochs=2,
                    embedding_dim=4,
                    embedding_epochs=1,
                    min_training_steps=20,
                    prediction_batch=16,
                    artifact_dir=str(tmp / "store"),
                    seed=0,
                )
            )

        mem = build()
        mem.fit(bundle.dirty, split.training, bundle.constraints)
        ooc = build()
        ooc.fit(sharded, split.training, bundle.constraints)
        return mem, ooc

    def test_sharded_predictions_bit_identical(self, fitted):
        mem, ooc = fitted
        p_mem = mem.predict()
        p_ooc = ooc.predict(p_mem.cells)
        assert list(p_mem.cells) == list(p_ooc.cells)
        assert np.array_equal(p_mem.probabilities, p_ooc.probabilities)

    def test_streamed_prediction_bit_identical(self, fitted):
        mem, ooc = fitted
        p_mem = mem.predict()
        streamed = list(ooc.iter_predict(iter(p_mem.cells)))
        assert [c for c, _ in streamed] == list(p_mem.cells)
        assert np.array_equal(
            np.array([p for _, p in streamed]), p_mem.probabilities
        )

    def test_warm_fit_reuses_artifacts(self, fitted):
        mem, ooc = fitted
        # The two fits shared one store and identical fingerprints, so the
        # sharded fit derived, and reused, every key of the in-memory fit.
        assert ooc.artifact_keys == mem.artifact_keys


class TestIngestion:
    def test_from_csv_matches_read_csv(self, tmp_path):
        dataset = Dataset.from_rows(
            ["a", "b"], [["1", "x,y"], ['"q"', ""], ["3", "z"]]
        )
        csv_path = tmp_path / "data.csv"
        write_csv(dataset, csv_path)
        sharded = ShardedDataset.from_csv(csv_path, tmp_path / "shards", shard_rows=2)
        assert sharded.fingerprint() == read_csv(csv_path).fingerprint()

    def test_convert_refuses_existing_without_force(self, tmp_path):
        dataset = Dataset.from_rows(["a"], [["1"]])
        ShardedDataset.convert(dataset, tmp_path / "s")
        with pytest.raises(FileExistsError):
            ShardedDataset.convert(dataset, tmp_path / "s")
        ShardedDataset.convert(dataset, tmp_path / "s", force=True)

    def test_to_dataset_round_trip(self, tmp_path):
        dataset = Dataset.from_rows(["a", "b"], [["1", "2"], ["3", "4"], ["5", "6"]])
        sharded = _sharded_twin(dataset, tmp_path, 2)
        assert sharded.to_dataset() == dataset

    def test_verify_detects_corruption(self, tmp_path):
        dataset = Dataset.from_rows(["a"], [["1"], ["2"], ["3"]])
        sharded = _sharded_twin(dataset, tmp_path, 2)
        sharded.verify()
        shard_file = next((tmp_path / "twin" / "shards").rglob("*.npy"))
        arr = np.load(shard_file)
        arr[0] = "tampered"
        np.save(shard_file, arr)
        with pytest.raises(ValueError, match="digest"):
            ShardedDataset(tmp_path / "twin").verify()

    @pytest.mark.parametrize(
        "shard, damage, expected",
        [
            (1, lambda chunk: chunk.unlink(), "chunk file is missing"),
            (0, lambda chunk: np.save(chunk, np.array(["1", "2", "9"])),
             "holds 3 values, not 2"),
            (1, lambda chunk: chunk.write_text("garbage"), "not a chunk file"),
            (0, lambda chunk: chunk.write_bytes(chunk.read_bytes()[:-3]),
             "not a chunk file"),
        ],
        ids=["missing", "wrong-length", "garbage", "truncated"],
    )
    def test_verify_names_a_broken_chunk_file(self, tmp_path, shard, damage, expected):
        _sharded_twin(Dataset.from_rows(["a"], [["1"], ["2"], ["3"]]), tmp_path, 2)
        chunk = tmp_path / "twin" / "shards" / f"shard-{shard:05d}" / "c0.npy"
        damage(chunk)
        with pytest.raises(ValueError) as excinfo:
            ShardedDataset(tmp_path / "twin").verify()
        assert str(excinfo.value).startswith(f"{chunk}: {expected}")

    def test_verify_names_a_quarantined_shard(self, tmp_path):
        _sharded_twin(Dataset.from_rows(["a"], [["1"], ["2"], ["3"]]), tmp_path, 2)
        chunk = tmp_path / "twin" / "shards" / "shard-00000" / "c0.npy"
        policy = RetryPolicy(max_attempts=2, base_delay=0.01, sleep=lambda s: None)
        with use_policy(policy), inject("shard.read=first:99:EIO"):
            with pytest.raises(ValueError) as excinfo:
                ShardedDataset(tmp_path / "twin").verify()
        assert str(excinfo.value).startswith(f"{chunk}: unreadable, shard 0 quarantined")

    def test_open_relation_dispatches_on_path(self, tmp_path):
        dataset = Dataset.from_rows(["a"], [["1"], ["2"]])
        csv_path = tmp_path / "data.csv"
        write_csv(dataset, csv_path)
        assert isinstance(open_relation(csv_path), Dataset)
        _sharded_twin(dataset, tmp_path, 1)
        opened = open_relation(tmp_path / "twin")
        assert isinstance(opened, ShardedDataset)
        assert opened.fingerprint() == dataset.fingerprint()


class TestManifestReader:
    """A malformed manifest is one ``ValueError`` that names the manifest
    file and the missing or mistyped entry, never a ``KeyError`` or an
    ``AttributeError`` from deep in the reader."""

    @pytest.mark.parametrize(
        "text, expected",
        [
            ('{"schema": "repro.shards/v1"}', "manifest has no 'attributes' entry"),
            ("[1, 2]", "manifest must be an object, not list"),
            ('{"schema": "repro.shards/v1", "attri', "not a JSON manifest"),
            ('{"schema": "repro.shards/v0"}', "unsupported shard manifest schema"),
        ],
        ids=["no-attributes", "not-an-object", "truncated", "foreign-schema"],
    )
    def test_malformed_manifest_names_the_file(self, tmp_path, text, expected):
        (tmp_path / "manifest.json").write_text(text)
        with pytest.raises(ValueError) as excinfo:
            ShardedDataset(tmp_path)
        message = str(excinfo.value)
        assert message.startswith(f"{tmp_path / 'manifest.json'}: ")
        assert expected in message

    @pytest.mark.parametrize(
        "edit, expected",
        [
            (lambda m: m.pop("fingerprint"), "manifest has no 'fingerprint' entry"),
            (lambda m: m.update(num_rows="3"), "'num_rows' must be an integer, not str"),
            (lambda m: m.update(shards={}), "'shards' must be an array, not dict"),
            (lambda m: m["shards"].__setitem__(1, [0, 2]),
             "shard 1 must be an object, not list"),
            (lambda m: m["shards"][0].pop("start"), "shard 0 has no 'start' entry"),
            (lambda m: m["attributes"].append(["b"]), "attribute ['b'] is not a string"),
            (lambda m: m["column_fingerprints"].pop("a"),
             "no column fingerprint for 'a'"),
            (lambda m: m["shards"][1].update(digests=[]), "shard 1 has 0 digests for 1"),
            (lambda m: m.update(num_rows=5), "2 shards hold 3 rows, but num_rows is 5"),
            (lambda m: m.update(num_rows=2), "2 shards hold 3 rows, but num_rows is 2"),
            (lambda m: m["shards"][0].update(start=1), "shard 0 starts at row 1, not 0"),
            (lambda m: m["shards"][1].update(start=3), "shard 1 starts at row 3, not 2"),
            (lambda m: m["shards"][0].update(rows=-1), "shard 0 holds -1 rows"),
        ],
        ids=["no-fingerprint", "num-rows-str", "shards-object", "shard-list",
             "shard-no-start", "attribute-list", "no-column-fingerprint",
             "digests-short", "num-rows-high", "num-rows-low", "first-shard-offset",
             "shard-gap", "negative-rows"],
    )
    def test_mistyped_entry_is_named(self, tmp_path, edit, expected):
        _sharded_twin(Dataset.from_rows(["a"], [["1"], ["2"], ["3"]]), tmp_path, 2)
        path = tmp_path / "twin" / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="manifest.json: ") as excinfo:
            ShardedDataset(tmp_path / "twin")
        assert expected in str(excinfo.value)

    def test_registry_kind_fails_in_one_line(self, tmp_path):
        from repro.registry import ComponentError, REGISTRY

        (tmp_path / "manifest.json").write_text("[1, 2]")
        with pytest.raises(ComponentError) as excinfo:
            REGISTRY.create("dataset", "sharded", {"dir": str(tmp_path)})
        message = str(excinfo.value)
        assert "manifest.json: manifest must be an object" in message
        assert "\n" not in message


class TestRelationSemantics:
    def test_mutators_raise(self, tmp_path):
        dataset = Dataset.from_rows(["a"], [["1"], ["2"]])
        sharded = _sharded_twin(dataset, tmp_path, 1)
        with pytest.raises(TypeError, match="to_dataset"):
            sharded.set_value(Cell(0, "a"), "9")
        with pytest.raises(TypeError, match="to_dataset"):
            sharded.apply_edits({Cell(0, "a"): "9"})
        with pytest.raises(TypeError, match="to_dataset"):
            sharded.append_rows([["9"]])

    def test_unknown_attribute_is_a_key_error(self, tmp_path):
        """Every column accessor of both backings raises ``KeyError`` naming
        an attribute that is not in the schema."""
        dataset = Dataset.from_rows(["a", "b"], [["1", "2"], ["3", "4"]])
        for relation in (dataset, _sharded_twin(dataset, tmp_path, 1)):
            for access in (
                lambda: relation.value(Cell(0, "nope")),
                lambda: relation.column("nope"),
                lambda: relation.column_chunk("nope", 0, 1),
                lambda: relation.column_fingerprint("nope"),
                lambda: relation.value_counts("nope"),
                lambda: relation.domain("nope"),
            ):
                with pytest.raises(KeyError, match="nope"):
                    access()

    def test_copy_returns_self(self, tmp_path):
        dataset = Dataset.from_rows(["a"], [["1"]])
        sharded = _sharded_twin(dataset, tmp_path, 1)
        assert sharded.copy() is sharded

    @given(dataset=_tables, shard_rows=_shard_rows)
    @settings(max_examples=20, deadline=None)
    def test_column_view_indexing(self, dataset, shard_rows, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("shards")
        sharded = _sharded_twin(dataset, tmp, shard_rows)
        for attr in dataset.attributes:
            expected = dataset.column(attr)
            view = sharded.column(attr)
            assert list(view) == list(expected)
            assert [view[i] for i in range(len(view))] == list(expected)
            assert view[-1] == expected[-1]
            assert list(view[1:3]) == list(expected[1:3])

    def test_statistics_match_in_memory(self, hospital, tmp_path):
        sharded = _sharded_twin(hospital.dirty, tmp_path, 11)
        for attr in hospital.dirty.attributes[:4]:
            assert sharded.value_counts(attr) == hospital.dirty.value_counts(attr)
            assert sharded.domain(attr) == hospital.dirty.domain(attr)

    def test_column_chunk_spans_shards(self, hospital, tmp_path):
        sharded = _sharded_twin(hospital.dirty, tmp_path, 7)
        attr = hospital.dirty.attributes[0]
        full = hospital.dirty.column(attr)
        assert list(sharded.column_chunk(attr, 3, 25)) == list(full[3:25])
        assert list(sharded.column_chunk(attr, 0, sharded.num_rows)) == list(full)


class TestConcurrentReads:
    def test_threads_share_a_small_open_array_cache(self, tmp_path):
        """More threads than cores read random (shard, column) chunks of a
        15-shard relation through an LRU of 3 open arrays, switching every
        microsecond: each read returns its chunk, none loses its key to
        another thread's eviction."""
        dataset = load_dataset("hospital", num_rows=120, seed=0).dirty
        ShardedDataset.convert(dataset, tmp_path / "twin", shard_rows=8)
        sharded = ShardedDataset(tmp_path / "twin", max_open_arrays=3)
        spans = sharded.shard_spans()
        assert len(spans) == 15
        attributes = dataset.attributes
        problems: list[str] = []

        def read(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                for _ in range(1500):
                    span = spans[rng.integers(len(spans))]
                    attr = attributes[rng.integers(len(attributes))]
                    chunk = sharded.column_chunk(attr, span.start, span.stop)
                    if list(chunk) != dataset.column(attr)[span.start : span.stop]:
                        problems.append(f"thread {seed}: {attr} of shard {span.index}")
            except Exception as exc:  # noqa: BLE001 - reported below
                problems.append(f"thread {seed}: {exc!r}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert problems == []


class TestRegistryKind:
    def test_sharded_dataset_kind(self, hospital, tmp_path):
        from repro.registry import REGISTRY

        _sharded_twin(hospital.dirty, tmp_path, 16)
        bundle = REGISTRY.create("dataset", "sharded", {"dir": str(tmp_path / "twin")})
        assert isinstance(bundle.dirty, ShardedDataset)
        assert bundle.dirty.fingerprint() == hospital.dirty.fingerprint()
        assert bundle.name == "twin"
        assert len(bundle.truth) == 0

    def test_rejects_resizing(self, tmp_path):
        from repro.registry import ComponentError, REGISTRY

        with pytest.raises(ComponentError):
            REGISTRY.create(
                "dataset", "sharded", {"dir": str(tmp_path), "num_rows": 5}
            )
