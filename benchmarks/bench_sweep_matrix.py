"""Scenario-matrix sweep harness: parallel fan-out vs sequential ground truth.

The paper's evaluation is a grid (§6.1, Tables 2–5); ``repro sweep`` runs
that grid on a worker pool with a resumable result store.  This harness
exercises the full machinery at CI scale — a 2-dataset × 2-error-profile ×
2-method matrix — and asserts the ISSUE 3 acceptance criteria:

- the **process-pool** run (2 workers) produces **bit-identical** accuracy
  records (metrics, per-trial P/R/F1, mean/std) to the sequential run;
- after deleting half the store, a ``resume`` run re-executes **only** the
  missing scenarios and converges to the same records.

The sweep summary is also written as JSON (to ``bench_sweep_matrix.json``
in the working directory) so CI can archive it as a build artifact.

Run with ``pytest benchmarks/bench_sweep_matrix.py -s`` to see the table.
"""

from __future__ import annotations

import json
from pathlib import Path

from conftest import BENCH_SEED, print_table

from repro.evaluation.matrix import ScenarioMatrix, run_matrix
from repro.evaluation.store import ResultStore
from repro.utils.timing import Timer

#: 2 datasets × 2 error profiles × 1 budget × 2 methods = 8 scenarios.
#: Rows are kept small and fixed: this harness measures the *harness*, not
#: the detectors, so it must stay fast even at REPRO_BENCH_ROWS scale.
MATRIX_SPEC = {
    "datasets": [{"name": "hospital", "rows": 120}, {"name": "food", "rows": 120}],
    "error_profiles": ["native", "bart-mix"],
    "label_budgets": [0.1],
    "methods": ["cv", "od"],
    "trials": 3,
    "seed": BENCH_SEED,
}

#: The fields that must be bit-identical across executors (everything
#: except wall-clock noise).
ACCURACY_FIELDS = ("fingerprint", "spec", "metrics", "trials", "mean_f1", "std_f1")


def accuracy_view(records: list[dict]) -> list[dict]:
    return [{k: r[k] for k in ACCURACY_FIELDS} for r in records]


def test_sweep_parallel_matches_sequential_and_resumes(tmp_path):
    matrix = ScenarioMatrix.from_dict(MATRIX_SPEC)

    with Timer() as serial_timer:
        serial = run_matrix(matrix, workers=1)

    store = ResultStore(tmp_path / "store.jsonl")
    with Timer() as parallel_timer:
        parallel = run_matrix(
            matrix, store=store, resume=True, workers=2, executor="process"
        )
    assert parallel.workers == 2

    # Acceptance: bit-identical accuracy records, any executor.
    assert accuracy_view(parallel.records) == accuracy_view(serial.records)

    # Kill simulation: drop half the completed store, then resume.
    store_path = tmp_path / "store.jsonl"
    lines = store_path.read_text().splitlines()
    store_path.write_text("".join(line + "\n" for line in lines[: len(lines) // 2]))
    resumed = run_matrix(
        matrix,
        store=ResultStore(store_path),
        resume=True,
        workers=2,
        executor="process",
    )
    # Acceptance: only the deleted half re-executes, and records converge.
    assert resumed.executed == len(lines) - len(lines) // 2
    assert resumed.cached == len(lines) // 2
    assert accuracy_view(resumed.records) == accuracy_view(serial.records)

    print_table(
        "Sweep matrix (2 datasets x 2 profiles x 2 methods)",
        ["dataset", "profile", "method", "P", "R", "F1", "runtime (s)"],
        [
            [
                r["spec"]["dataset"],
                r["spec"]["error_profile"],
                r["spec"]["method"],
                f"{r['metrics']['precision']:.3f}",
                f"{r['metrics']['recall']:.3f}",
                f"{r['metrics']['f1']:.3f}",
                f"{r['median_runtime']:.2f}",
            ]
            for r in parallel.records
        ],
    )
    print(
        f"\nsequential: {serial_timer.elapsed:.2f}s   "
        f"2-worker process pool: {parallel_timer.elapsed:.2f}s   "
        f"resume re-ran {resumed.executed}/{resumed.total}"
    )

    payload = parallel.to_json()
    payload["sequential_seconds"] = serial_timer.elapsed
    payload["parallel_seconds"] = parallel_timer.elapsed
    out_path = Path("bench_sweep_matrix.json")
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}")
