"""Unit tests for CSV I/O."""

import pytest

from repro.dataset import Dataset, read_csv, write_csv


class TestCsvRoundtrip:
    def test_roundtrip(self, tmp_path, zip_dataset):
        path = tmp_path / "data.csv"
        write_csv(zip_dataset, path)
        loaded = read_csv(path)
        assert loaded == zip_dataset

    def test_empty_fields_become_missing_token(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,\n,2\n")
        loaded = read_csv(path, missing_token="<NaN>")
        assert loaded.column("b") == ["<NaN>", "2"]
        assert loaded.column("a") == ["1", "<NaN>"]

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="header"):
            read_csv(path)

    def test_values_with_commas_and_quotes(self, tmp_path):
        d = Dataset.from_rows(["a"], [['he said "hi, there"']])
        path = tmp_path / "q.csv"
        write_csv(d, path)
        assert read_csv(path) == d

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n")
        loaded = read_csv(path)
        assert loaded.num_rows == 0
        assert loaded.attributes == ("a", "b")


class TestCsvRecords:
    """One record reader under every CSV the system reads."""

    def test_trailing_blank_line_loads_with_the_same_fingerprint(self, tmp_path):
        from repro.dataset import ShardedDataset

        plain = tmp_path / "plain.csv"
        plain.write_text("a,b\n1,2\n3,4\n")
        trailing = tmp_path / "trailing.csv"
        trailing.write_text("a,b\n1,2\n3,4\n\n")
        expected = read_csv(plain).fingerprint()
        assert read_csv(trailing).fingerprint() == expected
        sharded = ShardedDataset.from_csv(trailing, tmp_path / "shards", shard_rows=1)
        assert sharded.num_rows == 2
        assert sharded.fingerprint() == expected

    @pytest.mark.parametrize(
        "text, match",
        [
            ("a,a\n1,2\n", r"bad\.csv:1: duplicate column names \['a'\]"),
            ("a,b\n1,2\n3\n", r"bad\.csv:3: expected 2 fields like the header, got 1"),
            ("a,b\n1,2,3\n", r"bad\.csv:2: expected 2 fields like the header, got 3"),
            ("", r"bad\.csv is empty"),
            ("\n\n", r"bad\.csv is empty"),
            ("a\n" + "x" * 200_000 + "\n", r"bad\.csv:2: field larger than field limit"),
        ],
        ids=["duplicate-header", "short-row", "long-row", "empty", "blank-only", "huge-field"],
    )
    def test_malformed_relation_names_path_and_line(self, tmp_path, text, match):
        from repro.dataset import ShardedDataset

        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            read_csv(path)
        with pytest.raises(ValueError, match=match):
            ShardedDataset.from_csv(path, tmp_path / "shards")

    def test_undecodable_bytes_are_a_value_error(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"a,b\n\xff,1\n")
        with pytest.raises(ValueError, match="latin.csv: not UTF-8"):
            read_csv(path)

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        """Spreadsheet exports often start with a UTF-8 BOM; every reader
        drops it instead of gluing it to the first column's name."""
        from repro.dataset import ShardedDataset, read_edits, read_labels

        plain = tmp_path / "plain.csv"
        plain.write_text("zip,city\n60612,Chicago\n")
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        relation = read_csv(marked)
        assert relation.attributes == ("zip", "city")
        assert relation.fingerprint() == read_csv(plain).fingerprint()
        sharded = ShardedDataset.from_csv(marked, tmp_path / "shards")
        assert sharded.attributes == ("zip", "city")
        labels = tmp_path / "labels.csv"
        labels.write_bytes(b"\xef\xbb\xbfrow,attribute,true_value\n0,zip,60613\n")
        assert [e.true for e in read_labels(labels, relation)] == ["60613"]
        edits = tmp_path / "edits.csv"
        edits.write_bytes(b"\xef\xbb\xbfrow,attribute,value\n0,city,Boston\n")
        assert list(read_edits(edits, relation).values()) == ["Boston"]

    def test_records_stream_with_line_numbers(self, tmp_path):
        from repro.dataset import csv_records

        path = tmp_path / "d.csv"
        path.write_text('a,b\n\n1,"two\nlines"\n3,4\n')
        assert list(csv_records(path)) == [
            (1, ["a", "b"]), (4, ["1", "two\nlines"]), (5, ["3", "4"]),
        ]


class TestLabelsAndEdits:
    @pytest.fixture
    def relation(self):
        return Dataset.from_rows(["zip", "city"], [["60612", "Chicago"], ["02139", "Boston"]])

    def test_labels_read_named_columns_in_any_order(self, tmp_path, relation):
        from repro.dataset import read_labels

        path = tmp_path / "labels.csv"
        path.write_text("note,true_value,attribute,row\nx,Chicago,city,0\ny,Cambridge,city,1\n")
        training = read_labels(path, relation)
        assert [(e.cell.row, e.cell.attr, e.observed, e.true) for e in training] == [
            (0, "city", "Chicago", "Chicago"), (1, "city", "Boston", "Cambridge"),
        ]
        assert len(training.errors) == 1

    def test_short_labels_row_names_path_and_line(self, tmp_path, relation):
        from repro.dataset import read_labels

        path = tmp_path / "labels.csv"
        path.write_text("row,attribute,true_value\n0,city,Chicago\n1,city\n")
        with pytest.raises(ValueError, match=r"labels\.csv:3: expected 3 fields"):
            read_labels(path, relation)

    def test_short_edits_row_names_path_and_line(self, tmp_path, relation):
        from repro.dataset import read_edit_rows, read_edits

        path = tmp_path / "edits.csv"
        path.write_text("row,attribute,value\n0,city\n")
        with pytest.raises(ValueError, match=r"edits\.csv:2: expected 3 fields"):
            read_edits(path, relation)
        with pytest.raises(ValueError, match=r"edits\.csv:2: expected 3 fields"):
            read_edit_rows(path)

    @pytest.mark.parametrize(
        "line, match",
        [
            ("x,city,v", r"edits\.csv:2: row 'x' is not an integer"),
            ("2,city,v", r"edits\.csv:2: row 2 out of range"),
            ("-1,city,v", r"edits\.csv:2: row -1 out of range"),
            ("0,state,v", r"edits\.csv:2: unknown attribute 'state'"),
        ],
    )
    def test_edit_cells_are_checked_against_the_relation(self, tmp_path, relation, line, match):
        from repro.dataset import read_edits

        path = tmp_path / "edits.csv"
        path.write_text(f"row,attribute,value\n{line}\n")
        with pytest.raises(ValueError, match=match):
            read_edits(path, relation)

    def test_edits_map_cells_later_lines_win(self, tmp_path, relation):
        from repro.dataset import Cell, read_edit_rows, read_edits

        path = tmp_path / "edits.csv"
        path.write_text("row,attribute,value\n0,city,A\n0,city,B\n1,zip,\n")
        assert read_edits(path, relation) == {Cell(0, "city"): "B", Cell(1, "zip"): ""}
        # Without a relation only the row index is parsed (a served tenant's
        # relation is checked by the server).
        path.write_text("row,attribute,value\n7,anything,v\n")
        assert read_edit_rows(path) == [(7, "anything", "v")]


class TestCheckCell:
    def test_attribute_is_checked_before_the_row(self):
        from repro.dataset import Cell, check_cell

        relation = Dataset.from_rows(["a"], [["1"]])
        assert check_cell(relation, 0, "a") == Cell(0, "a")
        with pytest.raises(ValueError, match="^unknown attribute 'b'$"):
            check_cell(relation, 5, "b")
        with pytest.raises(ValueError, match="^row 1 out of range$"):
            check_cell(relation, 1, "a")
