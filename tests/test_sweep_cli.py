"""Tests for the ``repro sweep`` CLI subcommand."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

SPEC_TOML = """\
[matrix]
seed = 3
trials = 2
datasets = [{ name = "hospital", rows = 60 }]
label_budgets = [0.2]
methods = ["cv", "od"]
"""


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "sweep.toml"
    path.write_text(SPEC_TOML)
    return path


def run_sweep(*argv: str) -> int:
    return main(["sweep", *map(str, argv)])


class TestSpecParsing:
    def test_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="sweep spec error.*not found"):
            run_sweep("--spec", tmp_path / "nope.toml")

    def test_invalid_toml(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("datasets = [broken")
        with pytest.raises(SystemExit, match="invalid TOML"):
            run_sweep("--spec", path)

    def test_unknown_method(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"datasets": ["hospital"], "label_budgets": [0.1], "methods": ["nope"]})
        )
        with pytest.raises(SystemExit, match="unknown method"):
            run_sweep("--spec", path)

    def test_unsupported_extension(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("datasets: [hospital]")
        with pytest.raises(SystemExit, match="unsupported spec format"):
            run_sweep("--spec", path)

    def test_resume_without_store(self, spec_path):
        with pytest.raises(SystemExit, match="--resume requires --store"):
            run_sweep("--spec", spec_path, "--resume")

    def test_existing_store_without_resume(self, spec_path, tmp_path):
        store = tmp_path / "store.jsonl"
        store.write_text("")
        with pytest.raises(SystemExit, match="pass --resume"):
            run_sweep("--spec", spec_path, "--store", store)


class TestSweepExecution:
    def test_prints_table_and_writes_report(self, spec_path, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert run_sweep(
            "--spec", spec_path, "--report", report_path
        ) == 0
        out = capsys.readouterr()
        assert "| hospital" in out.out  # summary table on stdout
        assert "[2/2]" in out.err  # progress on stderr
        assert "2 scenarios (2 run, 0 cached)" in out.err

        payload = json.loads(report_path.read_text())
        assert payload["schema"] == "repro.sweep/v1"
        assert payload["total"] == 2
        assert payload["executed"] == 2 and payload["cached"] == 0
        assert payload["spec_file"] == str(spec_path)
        assert payload["wall_time"] >= 0.0
        assert {s["name"] if isinstance(s, dict) else s for s in payload["matrix"]["methods"]} \
            == {"cv", "od"}
        for record in payload["scenarios"]:
            assert set(record["metrics"]) == {"precision", "recall", "f1"}
            assert record["spec"]["dataset"] == "hospital"
            assert len(record["trials"]) == 2
            assert record["cached"] is False

    def test_resume_on_partial_store(self, spec_path, tmp_path, capsys):
        store = tmp_path / "store.jsonl"
        report_a = tmp_path / "a.json"
        report_b = tmp_path / "b.json"
        run_sweep("--spec", spec_path, "--store", store, "--resume", "--report", report_a)
        capsys.readouterr()

        # Drop the second completed scenario, as if the sweep was killed.
        lines = store.read_text().splitlines()
        store.write_text(lines[0] + "\n")
        run_sweep("--spec", spec_path, "--store", store, "--resume", "--report", report_b)
        err = capsys.readouterr().err
        assert "2 scenarios (1 run, 1 cached)" in err

        a = json.loads(report_a.read_text())
        b = json.loads(report_b.read_text())
        keep = ("fingerprint", "spec", "metrics", "trials", "mean_f1", "std_f1")
        assert [{k: r[k] for k in keep} for r in a["scenarios"]] == [
            {k: r[k] for k in keep} for r in b["scenarios"]
        ]

    def test_resume_skips_corrupt_tail(self, spec_path, tmp_path, capsys):
        store = tmp_path / "store.jsonl"
        run_sweep("--spec", spec_path, "--store", store, "--resume")
        capsys.readouterr()
        with store.open("a") as f:
            f.write('{"fingerprint": "half-writ')
        run_sweep("--spec", spec_path, "--store", store, "--resume")
        err = capsys.readouterr().err
        assert "skipped 1 unparseable line" in err
        assert "2 scenarios (0 run, 2 cached)" in err

    def test_worker_count_is_clamped(self, spec_path, capsys):
        run_sweep("--spec", spec_path, "--workers", "-5")
        assert "with 1 worker(s)" in capsys.readouterr().err
        run_sweep("--spec", spec_path, "--workers", "99")
        # 2 pending scenarios -> a process pool of at most 2 workers
        # despite the request.
        assert "with 2 worker(s)" in capsys.readouterr().err

    def test_executor_flag_is_retired(self, spec_path):
        """``--workers`` alone picks the pool: one runs inline, more run a
        process pool, so ``--executor`` is an unknown flag."""
        with pytest.raises(SystemExit) as exc:
            run_sweep("--spec", spec_path, "--executor", "serial")
        assert exc.value.code == 2

    def test_parallel_matches_serial(self, spec_path, tmp_path, capsys):
        serial_report = tmp_path / "serial.json"
        pool_report = tmp_path / "pool.json"
        run_sweep("--spec", spec_path, "--report", serial_report)
        run_sweep("--spec", spec_path, "--workers", "2", "--report", pool_report)
        capsys.readouterr()
        a = json.loads(serial_report.read_text())
        b = json.loads(pool_report.read_text())
        assert (a["workers"], b["workers"]) == (1, 2)
        for ra, rb in zip(a["scenarios"], b["scenarios"]):
            assert ra["metrics"] == rb["metrics"]
            assert ra["trials"] == rb["trials"]


class TestCoordinationFlags:
    def test_worker_id_requires_coordinate(self, spec_path):
        with pytest.raises(SystemExit, match="--worker-id only applies with --coordinate"):
            run_sweep("--spec", spec_path, "--worker-id", "w1")

    def test_lease_ttl_requires_coordinate(self, spec_path):
        with pytest.raises(SystemExit, match="--lease-ttl only applies with --coordinate"):
            run_sweep("--spec", spec_path, "--lease-ttl", "30")

    def test_coordinate_requires_store(self, spec_path):
        with pytest.raises(SystemExit, match="--coordinate requires --store"):
            run_sweep("--spec", spec_path, "--coordinate")

    def test_compact_requires_store(self, spec_path):
        with pytest.raises(SystemExit, match="--compact requires --store"):
            run_sweep("--spec", spec_path, "--compact")

    def test_coordinated_sweep_tolerates_existing_store(self, spec_path, tmp_path, capsys):
        """--coordinate implies --resume: a shared store already being
        drained by peers is the normal case, not an error."""
        store = tmp_path / "store.jsonl"
        run_sweep("--spec", spec_path, "--store", store,
                  "--coordinate", "--worker-id", "first")
        err = capsys.readouterr().err
        assert "2 scenarios (2 run, 0 cached)" in err
        assert "worker first executed 2" in err
        # Second worker, same store, no --resume flag: nothing left to do.
        run_sweep("--spec", spec_path, "--store", store,
                  "--coordinate", "--worker-id", "second")
        err = capsys.readouterr().err
        assert "2 scenarios (0 run, 2 cached)" in err
        assert "worker second executed 0" in err
        assert "(2 already stored)" in err

    def test_compact_rewrites_superseded_records(self, spec_path, tmp_path, capsys):
        store = tmp_path / "store.jsonl"
        run_sweep("--spec", spec_path, "--store", store, "--resume")
        capsys.readouterr()
        # Duplicate both records, as accumulated re-runs would.
        lines = store.read_text().splitlines()
        with store.open("a") as f:
            for line in lines:
                f.write(line + "\n")
        run_sweep("--spec", spec_path, "--store", store, "--resume", "--compact")
        err = capsys.readouterr().err
        assert "kept 2 record(s), dropped 2 superseded line(s)" in err
        assert len(store.read_text().splitlines()) == 2
