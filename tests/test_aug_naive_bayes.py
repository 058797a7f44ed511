"""Unit tests for the Naïve Bayes weak-supervision repair model (§5.4).

The batched scan (one posterior matrix per attribute) is held to the
per-cell loop it replaced, kept here as :func:`reference_scan`.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.augmentation import NaiveBayesRepairModel, channel_examples, naive_bayes
from repro.augmentation.naive_bayes import SuggestedRepair
from repro.baselines import HoloCleanDetector
from repro.core import DetectorConfig
from repro.data import load_dataset
from repro.dataset import Cell, Dataset
from repro.features.tuple_level import CooccurrenceFeaturizer


@pytest.fixture
def fd_dataset():
    """Strong zip->city correlation with one deviant cell."""
    rows = [["60612", "Chicago", "IL"]] * 20 + [["02139", "Cambridge", "MA"]] * 20
    rows.append(["60612", "Cicago", "IL"])  # the error
    return Dataset.from_rows(["zip", "city", "state"], rows)


class TestRepairSuggestions:
    def test_repairs_the_deviant_cell(self, fd_dataset):
        model = NaiveBayesRepairModel(confidence_threshold=0.8).fit(fd_dataset)
        suggestion = model.suggest_repair(Cell(40, "city"), fd_dataset)
        assert suggestion is not None
        assert suggestion.repair == "Chicago"
        assert suggestion.observed == "Cicago"
        assert suggestion.confidence >= 0.8

    def test_leaves_consistent_cells_alone(self, fd_dataset):
        model = NaiveBayesRepairModel(confidence_threshold=0.8).fit(fd_dataset)
        assert model.suggest_repair(Cell(0, "city"), fd_dataset) is None

    def test_suggest_repairs_scan(self, fd_dataset):
        model = NaiveBayesRepairModel(confidence_threshold=0.8).fit(fd_dataset)
        repairs = model.suggest_repairs(fd_dataset)
        assert any(r.cell == Cell(40, "city") for r in repairs)

    def test_max_cells_bound(self, fd_dataset):
        """The bounded scan keeps exactly the full scan's repairs whose
        attribute-major position is below the bound."""
        model = NaiveBayesRepairModel(confidence_threshold=0.8).fit(fd_dataset)
        full = model.suggest_repairs(fd_dataset)
        deviant = position(Cell(40, "city"), fd_dataset)
        assert deviant in [position(r.cell, fd_dataset) for r in full]
        for bound in (0, 5, 41, deviant, deviant + 1, 100, 123):
            expected = [r for r in full if position(r.cell, fd_dataset) < bound]
            assert model.suggest_repairs(fd_dataset, max_cells=bound) == expected

    def test_example_pairs_orientation(self, fd_dataset):
        """Pairs are (repair, observed) = (clean, dirty) for Algorithm 1."""
        model = NaiveBayesRepairModel(confidence_threshold=0.8).fit(fd_dataset)
        pairs = model.example_pairs(fd_dataset)
        assert ("Chicago", "Cicago") in pairs

    def test_high_threshold_suppresses_repairs(self, fd_dataset):
        model = NaiveBayesRepairModel(confidence_threshold=0.999999).fit(fd_dataset)
        # Nearly impossible confidence: very few (likely zero) repairs.
        repairs = model.suggest_repairs(fd_dataset)
        weaker = NaiveBayesRepairModel(confidence_threshold=0.5).fit(fd_dataset)
        assert len(repairs) <= len(weaker.suggest_repairs(fd_dataset))

    def test_unfitted_raises(self, fd_dataset):
        with pytest.raises(RuntimeError):
            NaiveBayesRepairModel().suggest_repair(Cell(0, "city"), fd_dataset)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            NaiveBayesRepairModel(confidence_threshold=0.0)

    @pytest.mark.parametrize("name", ["hospital", "soccer"])
    def test_holds_the_cooccurrence_featurizers_table(self, name):
        """The model reads the one co-occurrence table: fitted on a relation
        it holds exactly the joint counts the co-occurrence featurizer
        fits, and value counts that match the featurizer's per value."""
        dataset = load_dataset(name, num_rows=120, seed=0).dirty
        model = NaiveBayesRepairModel().fit(dataset)
        featurizer = CooccurrenceFeaturizer().fit(dataset)
        assert model._joint == featurizer._joint
        assert {
            (attr, value): count
            for attr, counts in model._value_counts.items()
            for value, count in counts.items()
        } == featurizer._value_counts


class TestPrecisionProperty:
    def test_precision_on_synthetic_errors(self):
        """§6.7/Table 6: the weak-supervision model should be precise.

        Build a dataset with known injected swaps and check that most
        suggested repairs point at genuinely dirty cells.
        """
        import numpy as np

        rng = np.random.default_rng(0)
        keys = [f"k{i}" for i in range(10)]
        values = {k: f"v{i}" for i, k in enumerate(keys)}
        rows = []
        for _ in range(300):
            k = keys[int(rng.integers(0, 10))]
            rows.append([k, values[k], "c"])
        clean = Dataset.from_rows(["k", "v", "pad"], rows)
        dirty = clean.copy()
        corrupted = set()
        for row in range(0, 300, 30):  # 10 swaps
            cell = Cell(row, "v")
            dirty.set_value(cell, "v9" if clean.value(cell) != "v9" else "v0")
            corrupted.add(cell)
        model = NaiveBayesRepairModel(confidence_threshold=0.9).fit(dirty)
        repairs = model.suggest_repairs(dirty)
        relevant = [r for r in repairs if r.cell.attr == "v"]
        assert relevant, "model found no repairs at all"
        hits = sum(1 for r in relevant if r.cell in corrupted)
        assert hits / len(relevant) > 0.7  # the paper's precision bar


# --------------------------------------------------------------------- #
# The batched scan against the per-cell loop
# --------------------------------------------------------------------- #


def position(cell: Cell, dataset: Dataset) -> int:
    """A cell's index in the attribute-major scan order."""
    return dataset.attributes.index(cell.attr) * dataset.num_rows + cell.row


def reference_posterior(model, attr, tuple_values):
    """The per-cell posterior the batched scan replaced."""
    partners = model._partners.get(attr, [])
    counts = model._value_counts[attr]
    candidates = list(counts)
    if len(candidates) > model.max_candidates:
        candidates = sorted(candidates, key=lambda v: -counts[v])[
            : model.max_candidates
        ]
    domain_sizes = {b: len(model._value_counts[b]) for b in partners}
    log_scores = np.empty(len(candidates))
    for i, candidate in enumerate(candidates):
        support = counts[candidate]
        log_score = np.log(model._priors[attr][candidate])
        for attr_b in partners:
            count = model._joint[(attr, candidate)].get(attr_b, {}).get(
                tuple_values[attr_b], 0
            )
            log_score += np.log(
                (count + model.smoothing)
                / (support + model.smoothing * domain_sizes[attr_b])
            )
        log_scores[i] = log_score
    log_scores -= log_scores.max()
    scores = np.exp(log_scores)
    scores /= scores.sum()
    return dict(zip(candidates, scores))


def reference_best(model, attr, tuple_values):
    posterior = reference_posterior(model, attr, tuple_values)
    best = max(posterior, key=lambda v: (posterior[v], v))
    return best, posterior[best]


def reference_scan(model, dataset):
    """The per-cell ``suggest_repair`` loop over every cell."""

    def support(attr, value, row_values):
        return max(
            model._joint.get((attr, value), {}).get(b, {}).get(row_values[b], 0)
            for b in model._partners[attr]
        )

    repairs = []
    for cell in dataset.cells():
        if not model._partners.get(cell.attr):
            continue
        observed = dataset.value(cell)
        row_values = dataset.row_dict(cell.row)
        best, confidence = reference_best(model, cell.attr, row_values)
        if best == observed or confidence < model.confidence_threshold:
            continue
        if support(cell.attr, observed, row_values) > model.max_observed_support:
            continue
        if support(cell.attr, best, row_values) < model.min_candidate_support:
            continue
        repairs.append(SuggestedRepair(cell, observed, best, confidence))
    return repairs


#: The cold_fit benchmark relation, and Food and Soccer at their bench floor.
SCAN_RELATIONS = [("hospital", 150, 6), ("food", 600, 0), ("soccer", 600, 0)]


@pytest.fixture(scope="module", params=SCAN_RELATIONS, ids=lambda r: r[0])
def scanned(request):
    name, rows, seed = request.param
    dataset = load_dataset(name, num_rows=rows, seed=seed).dirty
    model = NaiveBayesRepairModel().fit(dataset)
    return dataset, model, reference_scan(model, dataset)


class TestBatchedScan:
    def test_full_scan_matches_per_cell_loop(self, scanned):
        dataset, model, reference = scanned
        assert reference
        for max_cells in (None, DetectorConfig().weak_supervision_max_cells):
            assert model.suggest_repairs(dataset, max_cells) == reference

    def test_bounded_scan_matches_per_cell_loop(self, scanned):
        """A bound that cuts the attribute holding the middle repair."""
        dataset, model, reference = scanned
        middle = reference[len(reference) // 2]
        bound = position(middle.cell, dataset) + 1
        assert bound % dataset.num_rows
        expected = [r for r in reference if position(r.cell, dataset) < bound]
        assert model.suggest_repairs(dataset, max_cells=bound) == expected
        assert expected[-1] == middle

    def test_every_cell_best_candidate_matches(self):
        """Every attribute, partnered or not: the shared core's best
        candidate and posterior equal the per-cell loop's."""
        dataset = load_dataset("hospital", num_rows=150, seed=6).dirty
        model = NaiveBayesRepairModel().fit(dataset)
        rows = range(dataset.num_rows)
        for attr in dataset.attributes:
            expected = [
                reference_best(model, attr, dataset.row_dict(row)) for row in rows
            ]
            assert model.best_candidates(attr, dataset, rows) == expected

    def test_row_blocks_do_not_change_the_scan(self, monkeypatch):
        dataset = load_dataset("hospital", num_rows=150, seed=6).dirty
        model = NaiveBayesRepairModel().fit(dataset)
        whole = model.suggest_repairs(dataset)
        monkeypatch.setattr(naive_bayes, "_ROW_BLOCK", 7)
        assert model.suggest_repairs(dataset) == whole

    def test_ties_go_to_the_greater_value(self):
        dataset = Dataset.from_rows(
            ["a", "b"], [["x", "p"], ["y", "p"], ["x", "q"], ["y", "q"]]
        )
        model = NaiveBayesRepairModel().fit(dataset)
        assert model.best_candidates("a", dataset, [0, 1]) == [("y", 0.5)] * 2

    def test_holoclean_flags_pinned(self):
        """HoloClean's repair engine runs on the shared core; these flags
        were taken with its per-cell posterior loop."""
        bundle = load_dataset("hospital", num_rows=150, seed=6)
        detector = HoloCleanDetector().fit(
            bundle.dirty, constraints=bundle.constraints
        )
        flagged = sorted((c.row, c.attr) for c in detector.predict_error_cells())
        digest = hashlib.sha256(repr(flagged).encode()).hexdigest()
        assert len(flagged) == 33
        assert digest == (
            "7a11fe7a1f3d58c9405df5b5d9493519d5d7d52de82b7dae8efea410a5b23b97"
        )


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


class TestChannelExamples:
    """``channel_examples`` is the one source of the channel's example pairs
    for the detector, the Table 4 uniform-policy ablation and ``repro
    policy``.  The digests were taken with the three copies it replaced."""

    @pytest.fixture(scope="class")
    def labelled(self):
        from repro.evaluation import make_split

        bundle = load_dataset("hospital", num_rows=150, seed=6)
        return bundle.dirty, make_split(bundle, 0.05, rng=6).training

    @pytest.mark.parametrize(
        "min_error_pairs,count,digest",
        [
            # 6 labelled pairs, topped up by weak supervision.
            (10, 27, "a01cd840b502904d224cad3c351e1741c55b6471bfd3d06dec847b26e9da24e1"),
            # The labelled pairs alone.
            (0, 6, "3db900dc266676b1a6d0c759f9b143ad4fb04c2c91c67d9c8368d1ff718d3e64"),
        ],
    )
    def test_pairs_pinned(self, labelled, min_error_pairs, count, digest):
        pairs = channel_examples(
            *labelled, min_error_pairs=min_error_pairs, max_cells=20_000
        )
        assert len(pairs) == count
        assert _sha256(pairs) == digest

    def test_uniform_policy_transformations_pinned(self, labelled):
        """The ``uniform`` policy component over the channel AUG learns from
        the same pairs."""
        from repro.augmentation.policy import Policy
        from repro.registry import create

        learned = Policy.learn(channel_examples(*labelled, min_error_pairs=10, max_cells=20_000))
        policy = create("policy", "uniform")(learned)
        transformations = [[t.src, t.dst] for t in policy.transformations]
        assert len(transformations) == 57
        assert _sha256(transformations) == (
            "6a984a5ac91b349851b63b958cf7b9acc494608cb796e6be1cae80f748761e12"
        )
