"""Unit tests for the relational substrate (Dataset, Schema, Cell)."""

import pytest

from repro.dataset import Cell, Dataset, Schema


class TestSchema:
    def test_rejects_duplicate_attributes(self):
        with pytest.raises(ValueError, match="duplicate"):
            Schema(("a", "a"))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Schema(())

    def test_contains_and_index(self):
        schema = Schema(("a", "b", "c"))
        assert "b" in schema
        assert "z" not in schema
        assert schema.index("c") == 2
        assert len(schema) == 3


class TestDatasetConstruction:
    def test_from_rows_roundtrip(self):
        d = Dataset.from_rows(["x", "y"], [["1", "2"], ["3", "4"]])
        assert d.num_rows == 2
        assert d.row_values(0) == ["1", "2"]
        assert d.row_values(1) == ["3", "4"]

    def test_from_rows_rejects_wrong_arity(self):
        with pytest.raises(ValueError, match="arity"):
            Dataset.from_rows(["x", "y"], [["1"]])

    def test_from_dicts(self):
        d = Dataset.from_dicts([{"a": "1", "b": "2"}, {"a": "3", "b": "4"}])
        assert d.attributes == ("a", "b")
        assert d.value(Cell(1, "b")) == "4"

    def test_from_dicts_empty_needs_schema(self):
        with pytest.raises(ValueError):
            Dataset.from_dicts([])

    def test_values_coerced_to_str(self):
        d = Dataset.from_rows(["x"], [[1], [2.5]])
        assert d.column("x") == ["1", "2.5"]

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            Dataset(Schema(("a", "b")), {"a": ["1"], "b": ["1", "2"]})

    def test_columns_must_match_schema(self):
        with pytest.raises(ValueError, match="schema"):
            Dataset(Schema(("a",)), {"b": ["1"]})


class TestDatasetAccess:
    def test_value_and_set_value(self, zip_dataset):
        cell = Cell(0, "city")
        assert zip_dataset.value(cell) == "Chicago"
        zip_dataset.set_value(cell, "Boston")
        assert zip_dataset.value(cell) == "Boston"

    def test_getitem(self, zip_dataset):
        assert zip_dataset[Cell(4, "state")] == "MA"

    def test_row_dict(self, zip_dataset):
        assert zip_dataset.row_dict(2) == {"zip": "60614", "city": "Chicago", "state": "IL"}

    def test_row_dict_out_of_range(self, zip_dataset):
        with pytest.raises(IndexError):
            zip_dataset.row_dict(99)

    def test_set_value_checks_the_row_like_apply_edits(self):
        """A negative row is out of range, not Python's from-the-end index:
        the write raises and leaves the values and version untouched."""
        dataset = Dataset.from_rows(["a"], [["1"], ["2"]])
        with pytest.raises(IndexError, match="row -1 out of range"):
            dataset.set_value(Cell(-1, "a"), "9")
        assert dataset.column("a") == ["1", "2"]
        assert dataset.version == 0

    def test_cells_enumeration(self, zip_dataset):
        cells = list(zip_dataset.cells())
        assert len(cells) == zip_dataset.num_cells == 18
        assert len(set(cells)) == 18

    def test_cells_of_row(self, zip_dataset):
        cells = zip_dataset.cells_of_row(3)
        assert {c.attr for c in cells} == {"zip", "city", "state"}
        assert all(c.row == 3 for c in cells)

    def test_len(self, zip_dataset):
        assert len(zip_dataset) == 6


class TestDatasetStatistics:
    def test_value_counts(self, zip_dataset):
        counts = zip_dataset.value_counts("zip")
        assert counts == {"60612": 2, "60614": 2, "02139": 2}

    def test_domain_preserves_first_seen_order(self, zip_dataset):
        assert zip_dataset.domain("city") == ["Chicago", "Cicago", "Cambridge"]

    def test_copy_is_independent(self, zip_dataset):
        copy = zip_dataset.copy()
        copy.set_value(Cell(0, "city"), "X")
        assert zip_dataset.value(Cell(0, "city")) == "Chicago"
        assert copy != zip_dataset

    def test_equality(self, zip_dataset):
        assert zip_dataset == zip_dataset.copy()

    def test_copy_carries_version(self, zip_dataset):
        # Regression: copy() used to reset _version to 0, so a fingerprint
        # memoised on the copy could be served for post-copy mutations.
        zip_dataset.set_value(Cell(0, "city"), "Springfield")
        zip_dataset.set_value(Cell(1, "city"), "Shelbyville")
        assert zip_dataset.version > 0
        copy = zip_dataset.copy()
        assert copy.version == zip_dataset.version
        copy.set_value(Cell(0, "city"), "Ogdenville")
        assert copy.version > zip_dataset.version

    def test_repr(self, zip_dataset):
        assert "6 rows" in repr(zip_dataset)


class TestApplyEditsNetNoop:
    def test_duplicate_edits_netting_to_noop_excluded_from_delta(self, zip_dataset):
        # Regression: `changed` was computed edit-by-edit, so a batch that
        # rewrote a cell and then restored its pre-batch value still
        # reported the cell (and its row/column) in the delta.
        cell = Cell(0, "city")
        original = zip_dataset.value(cell)
        delta = zip_dataset.apply_edits([(cell, "X"), (cell, original)])
        assert delta.is_empty
        assert zip_dataset.value(cell) == original

    def test_net_noop_does_not_bump_version(self, zip_dataset):
        cell = Cell(0, "city")
        version = zip_dataset.version
        zip_dataset.apply_edits([(cell, "X"), (cell, zip_dataset.value(cell))])
        assert zip_dataset.version == version

    def test_mixed_batch_reports_only_net_changes(self, zip_dataset):
        noop = Cell(0, "city")
        real = Cell(1, "city")
        delta = zip_dataset.apply_edits(
            [(noop, "X"), (noop, zip_dataset.value(noop)), (real, "Chicago")]
        )
        assert set(delta.cells) == {real}
        assert delta.columns == ("city",)
        assert delta.rows == (1,)
        assert zip_dataset.value(real) == "Chicago"

    def test_last_write_wins_still_reported(self, zip_dataset):
        cell = Cell(0, "city")
        delta = zip_dataset.apply_edits([(cell, "X"), (cell, "Y")])
        assert set(delta.cells) == {cell}
        assert zip_dataset.value(cell) == "Y"
