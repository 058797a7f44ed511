"""Tests for the command-line interface."""

import csv
import json

import pytest

from repro.cli import build_parser, main
from repro.constraints import read_constraints
from repro.dataset import Dataset, read_labels, write_csv


@pytest.fixture
def workspace(tmp_path):
    """A small CSV + labels + constraints on disk."""
    rows = [["60612", "Chicago", "IL"]] * 12 + [["02139", "Cambridge", "MA"]] * 12
    rows.append(["60612", "Cxcago", "IL"])
    dataset = Dataset.from_rows(["zip", "city", "state"], rows)
    data_path = tmp_path / "data.csv"
    write_csv(dataset, data_path)

    labels_path = tmp_path / "labels.csv"
    with labels_path.open("w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["row", "attribute", "true_value"])
        for row in range(10):
            for attr in ("zip", "city", "state"):
                writer.writerow([row, attr, dataset.column(attr)[row]])
        writer.writerow([24, "city", "Chicago"])  # the labelled error

    constraints_path = tmp_path / "constraints.txt"
    constraints_path.write_text(
        "# zip determines city\n"
        "t1.zip == t2.zip & t1.city != t2.city\n"
        "\n"
        "t1.zip == t2.zip & t1.state != t2.state\n"
    )
    return tmp_path, data_path, labels_path, constraints_path


class TestFileLoaders:
    def test_load_constraints_skips_comments_and_blanks(self, workspace):
        _, _, _, constraints_path = workspace
        constraints = read_constraints(constraints_path)
        assert len(constraints) == 2

    def test_load_constraints_reports_line(self, tmp_path):
        bad = tmp_path / "c.txt"
        bad.write_text("not a constraint\n")
        with pytest.raises(ValueError, match="c.txt:1"):
            read_constraints(bad)

    def test_load_labels(self, workspace):
        _, data_path, labels_path, _ = workspace
        from repro.dataset import read_csv

        dataset = read_csv(data_path)
        training = read_labels(labels_path, dataset)
        assert len(training) == 31
        assert len(training.errors) == 1

    def test_load_labels_validates_attribute(self, workspace, tmp_path):
        _, data_path, _, _ = workspace
        from repro.dataset import read_csv

        dataset = read_csv(data_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("row,attribute,true_value\n0,nope,x\n")
        with pytest.raises(ValueError, match="bad.csv:2: unknown attribute"):
            read_labels(bad, dataset)

    def test_load_labels_validates_row(self, workspace, tmp_path):
        _, data_path, _, _ = workspace
        from repro.dataset import read_csv

        dataset = read_csv(data_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("row,attribute,true_value\n999,city,x\n")
        with pytest.raises(ValueError, match="bad.csv:2: row 999 out of range"):
            read_labels(bad, dataset)

    def test_load_labels_requires_header(self, workspace, tmp_path):
        _, data_path, _, _ = workspace
        from repro.dataset import read_csv

        dataset = read_csv(data_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="needs columns"):
            read_labels(bad, dataset)


class TestCommands:
    def test_detect_end_to_end(self, workspace):
        tmp_path, data_path, labels_path, constraints_path = workspace
        output = tmp_path / "out.csv"
        model_dir = tmp_path / "model"
        code = main(
            [
                "detect",
                "--input", str(data_path),
                "--labels", str(labels_path),
                "--constraints", str(constraints_path),
                "--output", str(output),
                "--save-model", str(model_dir),
                "--epochs", "5",
                "--embedding-dim", "6",
            ]
        )
        assert code == 0
        with output.open() as f:
            rows = list(csv.DictReader(f))
        assert rows
        assert set(rows[0]) == {"row", "attribute", "value", "error_probability", "flagged"}
        # Output is ranked by probability, descending.
        probs = [float(r["error_probability"]) for r in rows]
        assert probs == sorted(probs, reverse=True)
        assert (model_dir / "state.json").exists()

    def test_benchmark_command(self, capsys):
        code = main(
            [
                "benchmark",
                "--dataset", "soccer",
                "--rows", "120",
                "--epochs", "4",
                "--embedding-dim", "6",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "soccer:" in out and "F1=" in out

    def test_policy_command(self, workspace, capsys):
        _, data_path, labels_path, _ = workspace
        code = main(
            [
                "policy",
                "--input", str(data_path),
                "--labels", str(labels_path),
                "--value", "Chicago",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "transformations learned" in out

    def test_policy_weak_supervision_output_pinned(self, tmp_path, capsys):
        """With no labelled error, ``policy`` learns from Naive Bayes repairs
        over the whole relation; this stdout was taken before the command
        shared the detector's example-pair source."""
        from repro.data import load_dataset

        bundle = load_dataset("hospital", num_rows=80, seed=3)
        write_csv(bundle.dirty, tmp_path / "data.csv")
        with (tmp_path / "labels.csv").open("w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["row", "attribute", "true_value"])
            for cell in list(bundle.dirty.cells())[:60]:
                writer.writerow([cell.row, cell.attr, bundle.clean.value(cell)])
        code = main(
            ["policy", "--input", str(tmp_path / "data.csv"),
             "--labels", str(tmp_path / "labels.csv"), "--value", "Staidil"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == (
            "25 transformations learned from 10 example pairs\n"
            "  0.7500  't' -> 'x'\n"
            "  0.2500  'i' -> 'x'\n"
        )
        assert "no labelled errors" in captured.err

    def test_policy_rejects_model_flags(self):
        """``policy`` trains no model, so it takes no model flags."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["policy", "--input", "d.csv", "--labels", "l.csv",
                 "--value", "Chicago", "--epochs", "5"]
            )
        assert excinfo.value.code == 2  # argparse usage error

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


@pytest.fixture
def spec_file(tmp_path):
    """A fast declarative detector spec on disk."""
    path = tmp_path / "detector.toml"
    path.write_text(
        'schema = "repro.spec/v1"\n'
        "[detector]\n"
        "epochs = 5\n"
        "embedding_dim = 6\n"
        "seed = 0\n"
    )
    return path


class TestVersionFlag:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out


class TestSpecCommand:
    def test_validate_prints_fingerprint(self, spec_file, capsys):
        assert main(["spec", "validate", str(spec_file)]) == 0
        out = capsys.readouterr().out
        assert "valid repro.spec/v1" in out
        assert "fingerprint:" in out

    def test_describe_prints_components(self, spec_file, capsys):
        assert main(["spec", "describe", str(spec_file)]) == 0
        out = capsys.readouterr().out
        assert "epochs = 5   (override)" in out
        assert "<default Table 7 pipeline>" in out
        assert "calibrator:  platt" in out

    def test_validate_rejects_bad_spec(self, tmp_path):
        bad = tmp_path / "bad.toml"
        bad.write_text('schema = "repro.spec/v1"\n[detector]\nepochs = -1\n')
        with pytest.raises(SystemExit, match="epochs must be a positive integer"):
            main(["spec", "validate", str(bad)])

    def test_validate_rejects_unknown_component(self, tmp_path):
        bad = tmp_path / "bad.toml"
        bad.write_text('schema = "repro.spec/v1"\nfeaturizers = ["nope"]\n')
        with pytest.raises(SystemExit, match="unknown featurizer 'nope'"):
            main(["spec", "validate", str(bad)])


class TestDetectWithSpec:
    def test_detect_spec_and_json_report(self, workspace, spec_file):
        import json

        tmp_path, data_path, labels_path, constraints_path = workspace
        output = tmp_path / "out.csv"
        report = tmp_path / "report.json"
        code = main(
            [
                "detect",
                "--input", str(data_path),
                "--labels", str(labels_path),
                "--constraints", str(constraints_path),
                "--output", str(output),
                "--spec", str(spec_file),
                "--json", str(report),
            ]
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["schema"] == "repro.detect/v1"
        assert payload["rows"] == 25
        assert payload["attributes"] == ["zip", "city", "state"]
        assert payload["scored_cells"] == len(payload["cells"])
        assert payload["flagged_cells"] == sum(c["flagged"] for c in payload["cells"])
        assert payload["spec_fingerprint"]
        probs = [c["error_probability"] for c in payload["cells"]]
        assert probs == sorted(probs, reverse=True)
        # The triage CSV and the JSON report agree on the flag count.
        with output.open() as f:
            flagged_csv = sum(int(r["flagged"]) for r in csv.DictReader(f))
        assert flagged_csv == payload["flagged_cells"]

    def test_detect_spec_matches_flags_bit_for_bit(self, workspace, spec_file):
        """--spec with the default composition reproduces the flag-built
        detector exactly (old imperative path ≡ new declarative path)."""
        tmp_path, data_path, labels_path, _ = workspace
        out_flags = tmp_path / "flags.csv"
        out_spec = tmp_path / "spec.csv"
        base = [
            "detect",
            "--input", str(data_path),
            "--labels", str(labels_path),
        ]
        assert main(base + ["--output", str(out_flags), "--epochs", "5", "--embedding-dim", "6"]) == 0
        assert main(base + ["--output", str(out_spec), "--spec", str(spec_file)]) == 0
        assert out_flags.read_text() == out_spec.read_text()

    def test_detect_rejects_bad_spec_file(self, workspace, tmp_path):
        _, data_path, labels_path, _ = workspace
        bad = tmp_path / "bad.toml"
        bad.write_text('schema = "repro.spec/v0"\n')
        with pytest.raises(SystemExit, match="detector spec error"):
            main(
                [
                    "detect",
                    "--input", str(data_path),
                    "--labels", str(labels_path),
                    "--output", str(tmp_path / "o.csv"),
                    "--spec", str(bad),
                ]
            )

    def test_benchmark_accepts_spec(self, spec_file, capsys):
        code = main(
            [
                "benchmark",
                "--dataset", "hospital",
                "--rows", "100",
                "--spec", str(spec_file),
            ]
        )
        assert code == 0
        assert "hospital:" in capsys.readouterr().out

    def test_invalid_flag_config_fails_fast(self, workspace, tmp_path):
        _, data_path, labels_path, _ = workspace
        with pytest.raises(SystemExit, match="invalid detector configuration"):
            main(
                [
                    "detect",
                    "--input", str(data_path),
                    "--labels", str(labels_path),
                    "--output", str(tmp_path / "o.csv"),
                    "--epochs", "-2",
                ]
            )


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["serve", "--models", "{tmp}", "--capacity", "0"], "capacity"),
        (["serve", "--models", "{tmp}", "--max-batch-cells", "0"], "max_cells"),
        (["serve", "--models", "{tmp}", "--batch-window", "-1"], "window"),
        (["shard", "convert", "--input", "{tmp}/data.csv", "--out", "{tmp}/shards",
          "--rows-per-shard", "0"], "shard_rows"),
        (["sweep", "--spec", "{tmp}/sweep.toml", "--coordinate",
          "--store", "{tmp}/s.jsonl", "--lease-ttl", "-5"], "TTL"),
    ],
    ids=["capacity", "max-batch-cells", "batch-window", "rows-per-shard", "lease-ttl"],
)
def test_out_of_range_flag_exits_with_one_line(tmp_path, argv, expected):
    """Out-of-range values end in a one-line message, not a traceback."""
    (tmp_path / "data.csv").write_text("zip,city\n60612,Chicago\n")
    (tmp_path / "sweep.toml").write_text(
        'datasets = [{ name = "hospital", rows = 60 }]\n'
        "label_budgets = [0.2]\n"
        'methods = ["cv"]\n'
    )
    with pytest.raises(SystemExit) as excinfo:
        main([arg.format(tmp=tmp_path) for arg in argv])
    message = excinfo.value.code
    assert isinstance(message, str) and "\n" not in message
    assert expected in message


def _one_line_exit(argv: list[str]) -> str:
    """Run the CLI expecting a one-line error exit; return the message."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    message = excinfo.value.code
    assert isinstance(message, str) and "\n" not in message, message
    return message


class TestInputErrors:
    """Malformed input files end the command with one line naming the file."""

    @pytest.mark.parametrize(
        "text",
        ["zip,zip,state\n60612,Chicago,IL\n", "zip,city,state\n60612,Chicago\n", ""],
        ids=["duplicate-header", "ragged", "empty"],
    )
    @pytest.mark.parametrize("command", ["detect", "rescore", "policy", "client-detect"])
    def test_malformed_relation(self, workspace, command, text):
        tmp_path, _, labels_path, _ = workspace
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        edits = tmp_path / "edits.csv"
        edits.write_text("row,attribute,value\n0,city,Chicago\n")
        argv = {
            "detect": ["detect", "--labels", str(labels_path), "--output", "o.csv"],
            "rescore": ["rescore", "--labels", str(labels_path), "--edits", str(edits),
                        "--output", "o.csv"],
            "policy": ["policy", "--labels", str(labels_path), "--value", "Chicago"],
            # The client reads its input before contacting any server.
            "client-detect": ["client", "detect", "--fingerprint", "abcdef", "--port", "9"],
        }[command]
        assert "bad.csv" in _one_line_exit(argv + ["--input", str(bad)])

    def test_short_labels_row(self, workspace):
        tmp_path, data_path, labels_path, _ = workspace
        with labels_path.open("a") as f:
            f.write("3,city\n")
        message = _one_line_exit(
            ["detect", "--input", str(data_path), "--labels", str(labels_path),
             "--output", str(tmp_path / "o.csv")]
        )
        assert "labels.csv:33: expected 3 fields" in message

    def test_short_edits_row(self, workspace):
        tmp_path, data_path, labels_path, _ = workspace
        edits = tmp_path / "edits.csv"
        edits.write_text("row,attribute,value\n0,city,Chicago\n24,city\n")
        message = _one_line_exit(
            ["rescore", "--input", str(data_path), "--labels", str(labels_path),
             "--edits", str(edits), "--output", str(tmp_path / "o.csv")]
        )
        assert "edits.csv:3: expected 3 fields" in message

    def test_missing_input_file(self, workspace):
        tmp_path, _, labels_path, _ = workspace
        message = _one_line_exit(
            ["detect", "--input", str(tmp_path / "nope.csv"), "--labels",
             str(labels_path), "--output", str(tmp_path / "o.csv")]
        )
        assert "nope.csv" in message


class TestDetectorFromSpec:
    """Every CLI detector is spec-built; passed model flags override keys."""

    def test_flag_built_save_is_servable(self, workspace):
        from repro.persistence import detector_index
        from repro.spec import DetectorSpec

        tmp_path, data_path, labels_path, _ = workspace
        report, model = tmp_path / "report.json", tmp_path / "models" / "m"
        code = main(
            ["detect", "--input", str(data_path), "--labels", str(labels_path),
             "--output", str(tmp_path / "o.csv"), "--epochs", "5",
             "--embedding-dim", "6", "--no-augment", "--artifacts", str(tmp_path / "a"),
             "--save-model", str(model), "--json", str(report)]
        )
        assert code == 0
        # --artifacts stays out of the spec (and its fingerprint) but is
        # still recorded with the save, so a reload reattaches the store.
        fingerprint = DetectorSpec.default(
            epochs=5, embedding_dim=6, augment=False
        ).fingerprint()
        assert detector_index(tmp_path / "models") == {fingerprint: model}
        assert json.loads(report.read_text())["spec_fingerprint"] == fingerprint
        state = json.loads((model / "state.json").read_text())
        assert state["config"]["artifact_dir"] == str(tmp_path / "a")

    def test_model_flags_override_spec_keys(self, workspace, spec_file, capsys):
        from repro.spec import DetectorSpec

        tmp_path, data_path, labels_path, _ = workspace
        report = tmp_path / "report.json"
        code = main(
            ["detect", "--input", str(data_path), "--labels", str(labels_path),
             "--output", str(tmp_path / "o.csv"), "--spec", str(spec_file),
             "--epochs", "4", "--json", str(report)]
        )
        assert code == 0
        # spec_file sets epochs = 5, embedding_dim = 6, seed = 0.
        expected = DetectorSpec.default(epochs=4, embedding_dim=6, seed=0).fingerprint()
        assert json.loads(report.read_text())["spec_fingerprint"] == expected
        assert f"(fingerprint {expected[:12]})" in capsys.readouterr().err

    def test_unset_flags_leave_the_spec_alone(self, spec_file):
        args = build_parser().parse_args(
            ["benchmark", "--spec", str(spec_file), "--no-augment"]
        )
        assert (args.epochs, args.seed, args.prediction_batch, args.augment) == (
            None, None, None, False,
        )
