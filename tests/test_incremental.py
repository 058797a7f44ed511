"""Tests for the versioned-dataset + column-scoped incremental engine (ISSUE 2).

Covers the satellite checklist: delta correctness for ``apply_edits`` /
``append_rows``, scoped reuse (an edit in column A leaves column B's memo
entries serving hits, asserted via ``CacheStats``), the conservative
default featurizer scope,
``FeaturePipeline.refresh`` refitting only dirty models, and
``DetectionSession.apply`` matching a full ``predict()`` bit-for-bit on the
edited dataset.
"""

import numpy as np
import pytest

from repro.core import DetectionSession, DetectorConfig, ErrorPredictions, HoloDetect
from repro.dataset import Cell, Dataset, DatasetDelta
from repro.features import (
    CacheStats,
    ColumnIdFeaturizer,
    CooccurrenceFeaturizer,
    EmpiricalDistributionFeaturizer,
    FeatureContext,
    FeaturePipeline,
    FormatNGramFeaturizer,
)


@pytest.fixture
def mutable():
    rows = [["60612", "Chicago", "IL"]] * 4 + [["02139", "Cambridge", "MA"]] * 4
    return Dataset.from_rows(["zip", "city", "state"], rows)


# --------------------------------------------------------------------- #
# Dataset versioning + deltas
# --------------------------------------------------------------------- #


class TestColumnFingerprints:
    def test_edit_changes_only_its_column(self, mutable):
        before = {a: mutable.column_fingerprint(a) for a in mutable.attributes}
        relation_before = mutable.fingerprint()
        mutable.set_value(Cell(0, "city"), "Springfield")
        assert mutable.column_fingerprint("city") != before["city"]
        assert mutable.column_fingerprint("zip") == before["zip"]
        assert mutable.column_fingerprint("state") == before["state"]
        assert mutable.fingerprint() != relation_before

    def test_noop_set_value_changes_nothing(self, mutable):
        before = mutable.fingerprint()
        version = mutable.version
        mutable.set_value(Cell(0, "city"), "Chicago")
        assert mutable.fingerprint() == before
        assert mutable.version == version

    def test_version_bumps_on_effective_mutation(self, mutable):
        v0 = mutable.version
        mutable.set_value(Cell(0, "city"), "X")
        assert mutable.version == v0 + 1
        mutable.apply_edits({Cell(1, "zip"): "99999"})
        assert mutable.version == v0 + 2

    def test_copy_carries_fingerprints_and_stays_independent(self, mutable):
        fp = mutable.fingerprint()
        clone = mutable.copy()
        assert clone.fingerprint() == fp
        clone.set_value(Cell(0, "city"), "X")
        assert clone.fingerprint() != fp
        assert mutable.fingerprint() == fp

    def test_rows_fingerprint_scoped_to_rows(self, mutable):
        probe = mutable.rows_fingerprint([0, 1])
        mutable.set_value(Cell(5, "city"), "Boston")
        assert mutable.rows_fingerprint([0, 1]) == probe
        mutable.set_value(Cell(1, "city"), "Boston")
        assert mutable.rows_fingerprint([0, 1]) != probe


class TestApplyEdits:
    def test_delta_reports_touched_rows_and_columns(self, mutable):
        delta = mutable.apply_edits(
            {Cell(3, "city"): "Evanston", Cell(1, "zip"): "99999"}
        )
        assert set(delta.cells) == {Cell(3, "city"), Cell(1, "zip")}
        assert delta.columns == ("zip", "city")  # schema order
        assert delta.rows == (1, 3)  # ascending
        assert delta.appended == ()
        assert not delta.is_empty
        assert mutable.value(Cell(3, "city")) == "Evanston"

    def test_noop_edits_excluded_from_delta(self, mutable):
        delta = mutable.apply_edits(
            {Cell(0, "city"): "Chicago", Cell(1, "city"): "Berwyn"}
        )
        assert delta.cells == (Cell(1, "city"),)
        assert delta.columns == ("city",)

    def test_empty_and_all_noop_edits_give_empty_delta(self, mutable):
        version = mutable.version
        assert mutable.apply_edits({}).is_empty
        assert mutable.apply_edits({Cell(0, "zip"): "60612"}).is_empty
        assert mutable.version == version

    def test_pairs_iterable_accepted_last_wins(self, mutable):
        delta = mutable.apply_edits(
            [(Cell(0, "city"), "A"), (Cell(0, "city"), "B")]
        )
        assert mutable.value(Cell(0, "city")) == "B"
        assert delta.cells == (Cell(0, "city"),)

    def test_rejects_unknown_attribute_and_bad_row(self, mutable):
        with pytest.raises(KeyError):
            mutable.apply_edits({Cell(0, "nope"): "x"})
        with pytest.raises(IndexError):
            mutable.apply_edits({Cell(99, "city"): "x"})

    def test_invalid_batch_is_atomic(self, mutable):
        """An invalid edit anywhere in the batch must leave nothing applied."""
        fingerprint = mutable.fingerprint()
        version = mutable.version
        with pytest.raises(IndexError):
            mutable.apply_edits([(Cell(0, "city"), "Mutated"), (Cell(99, "city"), "x")])
        assert mutable.value(Cell(0, "city")) == "Chicago"
        assert mutable.fingerprint() == fingerprint
        assert mutable.version == version

    def test_values_coerced_to_str(self, mutable):
        mutable.apply_edits({Cell(0, "zip"): 12345})
        assert mutable.value(Cell(0, "zip")) == "12345"


class TestAppendRows:
    def test_append_delta_and_contents(self, mutable):
        delta = mutable.append_rows([["11111", "Naperville", "IL"]])
        assert delta.appended == (8,)
        assert delta.rows == (8,)
        assert delta.columns == mutable.attributes
        assert delta.cells == ()
        assert mutable.num_rows == 9
        assert mutable.row_values(8) == ["11111", "Naperville", "IL"]

    def test_append_changes_every_column_fingerprint(self, mutable):
        before = {a: mutable.column_fingerprint(a) for a in mutable.attributes}
        mutable.append_rows([["1", "2", "3"]])
        for attr in mutable.attributes:
            assert mutable.column_fingerprint(attr) != before[attr]

    def test_empty_append_is_noop(self, mutable):
        version = mutable.version
        assert mutable.append_rows([]).is_empty
        assert mutable.version == version

    def test_append_rejects_wrong_arity(self, mutable):
        with pytest.raises(ValueError, match="arity"):
            mutable.append_rows([["just-one"]])


class TestDeltaMerge:
    def test_merge_unions_everything(self):
        a = DatasetDelta(cells=(Cell(0, "x"),), columns=("x",), rows=(0,))
        b = DatasetDelta(
            cells=(Cell(2, "y"),), columns=("y", "x"), rows=(2, 5), appended=(5,)
        )
        merged = a.merge(b)
        assert merged.cells == (Cell(0, "x"), Cell(2, "y"))
        assert merged.columns == ("x", "y")
        assert merged.rows == (0, 2, 5)
        assert merged.appended == (5,)


# --------------------------------------------------------------------- #
# Featurizer scopes
# --------------------------------------------------------------------- #


class TestScopedInvalidation:
    def test_edit_in_column_a_keeps_column_b_attribute_blocks(self, mutable):
        featurizer = FormatNGramFeaturizer().fit(mutable)
        batch_a = [Cell(r, "zip") for r in range(4)]
        batch_b = [Cell(r, "city") for r in range(4)]
        featurizer.transform(batch_a, mutable)
        before_b = featurizer.transform(batch_b, mutable)
        memos = {attr: memo for attr, (_, memo) in featurizer._memos.items()}
        assert memos["zip"].stats == CacheStats(lookups=1, misses=1)
        assert memos["city"].stats == CacheStats(lookups=1, misses=1)
        mutable.set_value(Cell(0, "zip"), "00000")
        # Column B (city) entries survive the column-A edit: a hit.
        assert featurizer.transform(batch_b, mutable).tobytes() == before_b.tobytes()
        assert memos["city"].stats == CacheStats(lookups=2, misses=1)
        # Column A computes only its new value; the unchanged one hits.
        featurizer.transform(batch_a, mutable)
        assert memos["zip"].stats == CacheStats(lookups=3, misses=2)

    def test_tuple_scope_blocks_survive_edits_to_other_rows(self, mutable):
        featurizer = CooccurrenceFeaturizer().fit(mutable)
        rows_01 = [Cell(0, "city"), Cell(1, "city")]
        rows_67 = [Cell(6, "city"), Cell(7, "city")]
        featurizer.transform(rows_01, mutable)
        before = featurizer.transform(rows_67, mutable)
        _, memo = featurizer._memos["row"]
        # Rows 0-1 hold the same values, as do rows 6-7: one entry each.
        assert memo.stats == CacheStats(lookups=4, misses=2)
        # Edit row 6 (any column): rows 0-1 still hit...
        mutable.set_value(Cell(6, "zip"), "00000")
        featurizer.transform(rows_01, mutable)
        assert memo.stats == CacheStats(lookups=6, misses=2)
        # ...while row 6's new content is computed and row 7 hits.
        after = featurizer.transform(rows_67, mutable)
        assert memo.stats == CacheStats(lookups=8, misses=3)
        assert after[0].tobytes() != before[0].tobytes()
        assert after[1].tobytes() == before[1].tobytes()
        fresh = CooccurrenceFeaturizer.from_state(featurizer.to_state())
        assert after.tobytes() == fresh.transform(rows_67, mutable).tobytes()

    def test_default_scope_is_conservative_dataset(self, mutable):
        from repro.features import Featurizer

        class Custom(Featurizer):
            name = "custom"

        assert Custom.scope is FeatureContext.DATASET


# --------------------------------------------------------------------- #
# Pipeline refresh
# --------------------------------------------------------------------- #


class TestPipelineRefresh:
    def test_refreshes_only_dirty_columns(self, mutable):
        pipeline = FeaturePipeline(
            [FormatNGramFeaturizer(), ColumnIdFeaturizer(), CooccurrenceFeaturizer()]
        ).fit(mutable)
        ngram = pipeline.featurizers[0]
        untouched_model = ngram._models["state"]
        touched_model = ngram._models["city"]
        cooccurrence_tables = pipeline.featurizers[2]._joint
        delta = mutable.apply_edits({Cell(0, "city"): "Berwyn"})
        refitted = pipeline.refresh(mutable, delta)
        # Per-column model: only the touched column was refitted.
        assert "format_3gram" in refitted
        assert ngram._models["state"] is untouched_model
        assert ngram._models["city"] is not touched_model
        # Schema-only model: never refitted.
        assert "column_id" not in refitted
        # Relation-wide model: fully refitted, with new count tables.
        assert "cooccurrence" in refitted
        assert pipeline.featurizers[2]._joint is not cooccurrence_tables

    def test_refreshed_statistics_reflect_the_edit(self, mutable):
        pipeline = FeaturePipeline([EmpiricalDistributionFeaturizer()]).fit(mutable)
        delta = mutable.apply_edits({Cell(0, "city"): "Berwyn"})
        pipeline.refresh(mutable, delta)
        counts = pipeline.featurizers[0]._counts["city"]
        assert counts == {"Chicago": 3, "Berwyn": 1, "Cambridge": 4}

    def test_refresh_keeps_standardisation_frozen(self, mutable):
        pipeline = FeaturePipeline([EmpiricalDistributionFeaturizer()]).fit(mutable)
        mean, std = pipeline._numeric_mean.copy(), pipeline._numeric_std.copy()
        delta = mutable.apply_edits({Cell(0, "city"): "Berwyn"})
        assert pipeline.refresh(mutable, delta) == ["empirical_dist"]
        np.testing.assert_array_equal(pipeline._numeric_mean, mean)
        np.testing.assert_array_equal(pipeline._numeric_std, std)

    def test_empty_delta_refits_nothing(self, mutable):
        pipeline = FeaturePipeline([FormatNGramFeaturizer()]).fit(mutable)
        assert pipeline.refresh(mutable, DatasetDelta()) == []

    def test_refresh_before_fit_raises(self, mutable):
        pipeline = FeaturePipeline([FormatNGramFeaturizer()])
        with pytest.raises(RuntimeError):
            pipeline.refresh(mutable, DatasetDelta())


# --------------------------------------------------------------------- #
# DetectionSession ≡ full predict
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def fitted_detector():
    from repro.data import load_dataset
    from repro.evaluation import make_split

    bundle = load_dataset("hospital", num_rows=80, seed=1)
    split = make_split(bundle, 0.10, rng=0)
    config = DetectorConfig(
        epochs=5, embedding_dim=4, min_training_steps=100, seed=0
    )
    detector = HoloDetect(config)
    detector.fit(bundle.dirty, split.training, bundle.constraints)
    return bundle, detector


def tuple_edits(dataset, rows, n_attrs=5, suffix="x"):
    return {
        Cell(row, attr): dataset.value(Cell(row, attr)) + suffix
        for row in rows
        for attr in dataset.attributes[:n_attrs]
    }


class TestDetectionSession:
    def test_apply_matches_full_predict_bit_for_bit(self, fitted_detector):
        bundle, detector = fitted_detector
        dataset = bundle.dirty
        cells = [c for c in dataset.cells() if c not in detector._train_cells]
        session = DetectionSession(detector, cells)
        patched = session.apply(tuple_edits(dataset, rows=(3, 17, 41)))
        baseline = detector.predict(cells)
        assert patched.cells == baseline.cells
        assert patched.probabilities.tobytes() == baseline.probabilities.tobytes()
        # Far fewer cells were re-scored than exist.
        assert 0 < session.rescored_cells < len(cells) / 5

    def test_second_round_of_edits_also_matches(self, fitted_detector):
        bundle, detector = fitted_detector
        dataset = bundle.dirty
        cells = [c for c in dataset.cells() if c not in detector._train_cells]
        session = DetectionSession(detector, cells)
        session.apply(tuple_edits(dataset, rows=(5,), suffix="y"))
        patched = session.apply(tuple_edits(dataset, rows=(9, 30), suffix="z"))
        baseline = detector.predict(cells)
        assert patched.probabilities.tobytes() == baseline.probabilities.tobytes()

    def test_append_scores_new_rows_and_matches(self, fitted_detector):
        bundle, detector = fitted_detector
        dataset = bundle.dirty
        cells = [c for c in dataset.cells() if c not in detector._train_cells]
        session = DetectionSession(detector, cells)
        assert session.predictions.index_of(cells[-1]) == len(cells) - 1
        patched = session.append([dataset.row_values(0), dataset.row_values(1)])
        assert len(patched.cells) == len(cells) + 2 * len(dataset.attributes)
        baseline = detector.predict(list(patched.cells))
        assert patched.probabilities.tobytes() == baseline.probabilities.tobytes()
        # The lookup map built before the append covers the new cells too.
        for position in (0, len(cells), len(patched.cells) - 1):
            assert patched.index_of(patched.cells[position]) == position

    def test_noop_edit_rescores_nothing(self, fitted_detector):
        bundle, detector = fitted_detector
        dataset = bundle.dirty
        session = DetectionSession(detector)
        cell = session.predictions.cells[0]
        before = session.predictions.probabilities.copy()
        session.apply({cell: dataset.value(cell)})
        assert session.rescored_cells == 0
        assert np.array_equal(session.predictions.probabilities, before)

    def test_refresh_refits_and_still_matches_full_predict(self, fitted_detector):
        bundle, detector = fitted_detector
        dataset = bundle.dirty
        cells = [c for c in dataset.cells() if c not in detector._train_cells]
        session = DetectionSession(detector, cells)
        patched = session.apply(
            tuple_edits(dataset, rows=(2,), suffix="q"), refresh=True
        )
        # The refit pipeline is the detector's pipeline — a fresh full
        # prediction uses the refreshed models and must agree exactly.
        baseline = detector.predict(cells)
        assert patched.probabilities.tobytes() == baseline.probabilities.tobytes()

    def test_refresh_matches_full_predict_attribute_only_pipeline(self):
        """Regression: with only attribute-context models, refresh must not
        shift global statistics (standardisation) out from under the cells
        it does not re-score."""
        from repro.data import load_dataset
        from repro.evaluation import make_split
        from repro.spec import SPEC_SCHEMA, DetectorSpec

        bundle = load_dataset("hospital", num_rows=60, seed=2)
        split = make_split(bundle, 0.10, rng=0)
        spec = DetectorSpec.from_dict({
            "schema": SPEC_SCHEMA,
            "detector": {
                "epochs": 3, "embedding_dim": 4, "min_training_steps": 50, "seed": 0,
            },
            "featurizers": [
                "char_embedding", "word_embedding", "format_3gram",
                "symbolic_3gram", "empirical_dist", "column_id",
            ],
        })
        detector = HoloDetect.from_spec(spec).fit(
            bundle.dirty, split.training, bundle.constraints
        )
        dataset = bundle.dirty
        cells = [c for c in dataset.cells() if c not in detector._train_cells]
        session = DetectionSession(detector, cells)
        patched = session.apply(tuple_edits(dataset, rows=(1,)), refresh=True)
        baseline = detector.predict(cells)
        assert patched.probabilities.tobytes() == baseline.probabilities.tobytes()
        # Attribute-only pipeline: only the edited columns were re-scored.
        assert session.rescored_cells < len(cells)

    def test_session_accepts_existing_predictions(self, fitted_detector):
        bundle, detector = fitted_detector
        dataset = bundle.dirty
        cells = [c for c in dataset.cells() if c not in detector._train_cells]
        baseline = detector.predict(cells)
        session = DetectionSession(detector, predictions=baseline)
        assert session.predictions is baseline
        patched = session.apply(tuple_edits(dataset, rows=(23,), suffix="v"))
        full = detector.predict(cells)
        assert patched.probabilities.tobytes() == full.probabilities.tobytes()

    def test_unfitted_detector_rejected(self):
        with pytest.raises(RuntimeError):
            DetectionSession(HoloDetect())

    def test_predictions_index_is_constant_time_lookup(self, fitted_detector):
        _, detector = fitted_detector
        predictions = detector.predict()
        cell = predictions.cells[-1]
        assert predictions.index_of(cell) == len(predictions.cells) - 1
        assert predictions.probability(cell) == pytest.approx(
            float(predictions.probabilities[-1])
        )
        with pytest.raises(KeyError):
            predictions.index_of(Cell(10**6, "nope"))

    def test_predictions_index_with_a_repeated_cell_is_built_once(self):
        """A cell listed twice gives the map fewer keys than the list has
        cells; lookups must still reuse the map, not rebuild it each time."""
        twice, once = Cell(0, "a"), Cell(1, "a")
        predictions = ErrorPredictions([twice, once, twice], np.array([0.1, 0.2, 0.3]))
        assert predictions.index_of(once) == 1
        index = predictions._index
        assert predictions.probability(twice) == 0.3
        assert predictions._index is index


class TestSessionPersistenceRoundTrip:
    def test_loaded_detector_session_matches_original(self, fitted_detector, tmp_path):
        from repro.persistence import load_detector, save_detector

        bundle, detector = fitted_detector
        dataset = bundle.dirty.copy()
        save_detector(detector, tmp_path / "model")
        loaded = load_detector(tmp_path / "model", dataset)
        cells = [c for c in dataset.cells() if c not in loaded._train_cells]

        session = DetectionSession(loaded, cells)
        edits = tuple_edits(dataset, rows=(7, 19), suffix="w")
        patched = session.apply(edits)
        baseline = loaded.predict(cells)
        assert patched.probabilities.tobytes() == baseline.probabilities.tobytes()
        assert session.rescored_cells > 0
