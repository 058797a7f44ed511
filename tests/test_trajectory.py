"""The perf-trajectory script (``benchmarks/trajectory.py``) over synthetic
perfbench output: medians, quartiles, win counts, and appending."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "trajectory.py"

BENCHMARK = {
    "workloads": [{"name": "serve_mixed"}],
    "end_to_end": [
        {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "f1", "unit": "ratio", "better": "higher", "bound": 0.02},
    ],
}


@pytest.fixture
def trajectory(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _log(path: Path, p50s, f1s, failed=0, sha="abc") -> Path:
    """What one side's runs print: stderr noise, its environment line and
    one result line per run."""
    lines = ["serve_mixed: 1111 attempted, 0 failed, 21.6s"]
    lines.append("environment: " + json.dumps({"git_sha": sha, "nproc": 2}))
    for p50, f1 in zip(p50s, f1s):
        lines.append("op_p50_ms                                   12.8533 ms")
        lines.append(json.dumps({
            "correct": True, "attempted": 1111, "failed": failed,
            "metrics": {"op_p50_ms": {"value": p50, "unit": "ms"},
                        "f1": {"value": f1, "unit": "ratio"}},
        }))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _run(trajectory, tmp_path, parent, change, seed=1):
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps(BENCHMARK), encoding="utf-8")
    output = tmp_path / "BENCH_serve_mixed.json"
    assert trajectory.main([
        "--workload", "serve_mixed", "--seed", str(seed), "--pr", "7",
        "--parent-sha", "p" * 40, "--change-sha", "c" * 40,
        "--parent", str(parent), "--change", str(change),
        "--benchmark", str(benchmark), "--output", str(output),
    ]) == 0
    return json.loads(output.read_text(encoding="utf-8"))


def test_entry_records_medians_quartiles_and_wins(trajectory, tmp_path):
    parent = _log(tmp_path / "parent.log", [10, 12, 11, 13, 14], [0.5] * 5)
    change = _log(tmp_path / "change.log", [5, 12, 6, 7, 20], [0.5] * 4 + [0.6], failed=1)
    (entry,) = _run(trajectory, tmp_path, parent, change)["entries"]
    assert entry["pr"] == 7 and entry["seed"] == 1 and entry["pairs"] == 5
    assert entry["parent_sha"] == "p" * 40 and entry["change_sha"] == "c" * 40
    assert entry["failed"] == {"parent": 0, "change": 5}
    assert entry["environment"]["parent"] == {"git_sha": "abc", "nproc": 2}
    p50 = entry["metrics"]["op_p50_ms"]
    assert (p50["unit"], p50["better"]) == ("ms", "lower")
    assert p50["parent"] == {"median": 12, "q1": 11, "q3": 13}
    assert p50["change"] == {"median": 7, "q1": 6, "q3": 12}
    # 5<10, 6<11 and 7<13 win; 12 vs 12 is a tie; 20 vs 14 loses.
    assert p50["change_wins"] == 3
    f1 = entry["metrics"]["f1"]
    assert f1["better"] == "higher" and f1["change_wins"] == 1  # ties count for neither


def test_a_second_run_appends(trajectory, tmp_path):
    parent = _log(tmp_path / "parent.log", [10, 12], [0.5, 0.5])
    change = _log(tmp_path / "change.log", [9, 11], [0.5, 0.5])
    first = _run(trajectory, tmp_path, parent, change, seed=1)
    second = _run(trajectory, tmp_path, parent, change, seed=2)
    assert [e["seed"] for e in second["entries"]] == [1, 2]
    assert second["entries"][0] == first["entries"][0]
    assert second["workload"] == "serve_mixed"


def test_unpaired_runs_end_in_one_line(trajectory, tmp_path):
    parent = _log(tmp_path / "parent.log", [10, 12, 11], [0.5] * 3)
    change = _log(tmp_path / "change.log", [9, 11], [0.5] * 2)
    with pytest.raises(SystemExit, match="same positive number of runs"):
        _run(trajectory, tmp_path, parent, change)
