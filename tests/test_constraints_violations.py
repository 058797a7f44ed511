"""Unit tests for the violation engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import (
    DenialConstraint,
    Predicate,
    ViolationEngine,
    functional_dependency,
    parse_denial_constraint,
)
from repro.dataset import Cell, Dataset, ShardedDataset


class TestTupleViolationCounts:
    def test_fd_violations(self, zip_dataset, zip_fd):
        engine = ViolationEngine([zip_fd])
        counts = engine.tuple_violation_counts(zip_dataset)
        # Rows 0 and 1 share zip 60612 but disagree on city.
        assert counts[0, 0] == 1
        assert counts[1, 0] == 1
        assert counts[2:, 0].sum() == 0

    def test_clean_dataset_has_none(self, zip_clean, zip_fd):
        engine = ViolationEngine([zip_fd])
        assert ViolationEngine([zip_fd]).tuple_violation_counts(zip_clean).sum() == 0

    def test_multiple_constraints_columns(self, zip_dataset):
        fds = [functional_dependency("zip", "city"), functional_dependency("zip", "state")]
        counts = ViolationEngine(fds).tuple_violation_counts(zip_dataset)
        assert counts.shape == (6, 2)
        assert counts[:, 1].sum() == 0  # zip -> state holds

    def test_violation_count_scales_with_group(self):
        # Three tuples with same key, one deviant -> deviant counted twice.
        d = Dataset.from_rows(
            ["k", "v"], [["a", "1"], ["a", "1"], ["a", "2"]]
        )
        counts = ViolationEngine([functional_dependency("k", "v")]).tuple_violation_counts(d)
        assert counts[2, 0] == 2
        assert counts[0, 0] == 1

    def test_join_free_constraint_scan(self):
        # "no two tuples may both have score < the other" style constant DC:
        # t1.v == '1' (single-predicate constant constraint, no join key).
        dc = DenialConstraint((Predicate("v", "==", constant="1"),), name="const")
        d = Dataset.from_rows(["v"], [["1"], ["2"], ["1"]])
        counts = ViolationEngine([dc]).tuple_violation_counts(d)
        # Pairs (0,1): t0 satisfies; (0,2): both; (1,2): t2 satisfies.
        assert counts.sum() > 0


class TestViolatingCells:
    def test_flags_all_participating_attributes(self, zip_dataset, zip_fd):
        flagged = ViolationEngine([zip_fd]).violating_cells(zip_dataset)
        assert Cell(0, "zip") in flagged
        assert Cell(0, "city") in flagged
        assert Cell(1, "zip") in flagged
        assert Cell(1, "city") in flagged
        assert Cell(0, "state") not in flagged

    def test_empty_constraints(self, zip_dataset):
        assert ViolationEngine([]).violating_cells(zip_dataset) == set()


class TestSatisfactionRatio:
    def test_perfect_constraint(self, zip_clean, zip_fd):
        engine = ViolationEngine([])
        assert engine.satisfaction_ratio(zip_clean, zip_fd) == 1.0

    def test_violated_constraint_below_one(self, zip_dataset, zip_fd):
        engine = ViolationEngine([])
        ratio = engine.satisfaction_ratio(zip_dataset, zip_fd)
        assert ratio == pytest.approx(1.0 - 1 / 15)  # 1 violating pair of C(6,2)

    def test_single_row_dataset(self, zip_fd):
        d = Dataset.from_rows(["zip", "city", "state"], [["1", "a", "s"]])
        assert ViolationEngine([]).satisfaction_ratio(d, zip_fd) == 1.0


# --------------------------------------------------------------------- #
# Every count path against a brute-force count over tuple pairs
# --------------------------------------------------------------------- #

_values = st.sampled_from(["a", "b", "ab", ""])
_tables = st.lists(
    st.tuples(_values, _values, _values), min_size=0, max_size=14
).map(lambda rows: Dataset.from_rows(["k", "j", "v"], [list(r) for r in rows]))

#: One constraint per count path: FD group tables (one- and two-attribute
#: keys), the hash join over a non-FD equality join, and the pairwise scan.
_SHAPES = [
    functional_dependency("k", "v"),
    functional_dependency(["k", "j"], "v"),
    parse_denial_constraint("t1.k == t2.k & t1.v < t2.v"),
    parse_denial_constraint("t1.v < t2.v & t1.j != t2.j"),
]


def _brute_force(dataset, constraint):
    """Per-tuple counts and the number of violating pairs, from every
    unordered tuple pair checked in both orientations."""
    rows = [dataset.row_dict(r) for r in range(dataset.num_rows)]
    counts = np.zeros(len(rows))
    pairs = 0
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if constraint.violated_by(rows[i], rows[j]) or constraint.violated_by(
                rows[j], rows[i]
            ):
                counts[i] += 1
                counts[j] += 1
                pairs += 1
    return counts, pairs


class TestCountsMatchBruteForce:
    def test_each_shape_takes_its_path(self):
        assert [c.fd_shape() is not None for c in _SHAPES] == [True, True, False, False]
        assert [bool(c.equality_join_attrs()) for c in _SHAPES[2:]] == [True, False]

    @given(dataset=_tables, shard_rows=st.integers(min_value=1, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_engine_counts_every_shape_on_both_backings(
        self, dataset, shard_rows, tmp_path_factory
    ):
        twin = ShardedDataset.convert(
            dataset, tmp_path_factory.mktemp("twin"), shard_rows=shard_rows
        )
        engine = ViolationEngine(_SHAPES)
        expected = [_brute_force(dataset, c) for c in _SHAPES]
        n = dataset.num_rows
        for relation in (dataset, twin):
            counts = engine.tuple_violation_counts(relation)
            assert counts.shape == (n, len(_SHAPES))
            for k, (tuple_counts, pairs) in enumerate(expected):
                assert np.array_equal(counts[:, k], tuple_counts), _SHAPES[k]
                alpha = 1.0 - pairs / (n * (n - 1) // 2) if n > 1 else 1.0
                assert engine.satisfaction_ratio(relation, _SHAPES[k]) == alpha
