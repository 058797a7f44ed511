"""Multi-host cooperative sweeps: the ISSUE-9 acceptance gates.

Every worker here is a real ``repro sweep --coordinate`` subprocess — the
same CLI invocation N operators would run on N hosts sharing a filesystem
— draining one scenario matrix through lease files in ``<store>.coord/``
(:mod:`repro.coordination`).  Scenario runtime is dominated by a
deterministic slow method (``_distributed_method.probe``), so wall-clock
ratios measure cooperation, not noise.

Gates:

- ``test_cooperative_drain`` — three workers on one shared store drain the
  matrix with **zero duplicate executions** (replayed from the audit log),
  results **bit-identical** to a sequential in-process run, and combined
  wall-clock **< 0.6x** a single coordinated worker's;
- ``test_crash_recovery`` — one of two workers is ``SIGKILL``'d holding a
  lease; the survivor reclaims it after the TTL and completes the sweep,
  again bit-identically.

The measured numbers are written as JSON (to
``bench_distributed_sweep.json`` in the working directory) so CI archives
them as an artifact.  Run with
``pytest benchmarks/bench_distributed_sweep.py -s`` to see the tables.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from conftest import print_table, write_results

from repro.coordination import read_audit
from repro.evaluation.matrix import ScenarioMatrix, run_matrix
from repro.evaluation.store import ResultStore

_RESULTS_PATH = Path("bench_distributed_sweep.json")

#: Per-scenario sleep: long enough that the sweep outweighs process startup.
_DELAY = 0.8

#: The acceptance threshold: 3 workers must beat 0.6x one worker.
_SPEEDUP_GATE = 0.6

_REPO = Path(__file__).resolve().parent.parent

ACCURACY_FIELDS = ("fingerprint", "spec", "metrics", "trials", "mean_f1", "std_f1")


def _matrix_payload(budgets: int) -> dict:
    """``budgets`` scenarios: one slow method across distinct label budgets."""
    return {
        "datasets": [{"name": "hospital", "rows": 40}],
        "error_profiles": ["native"],
        "label_budgets": [round(0.05 * i, 2) for i in range(1, budgets + 1)],
        "methods": [{"name": "_distributed_method:probe", "delay": _DELAY}],
        "trials": 1,
        "seed": 23,
    }


def _write_spec(tmp_path: Path, budgets: int) -> Path:
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_matrix_payload(budgets)), encoding="utf-8")
    return spec


def _worker_env() -> dict[str, str]:
    """Workers need ``repro`` and ``_distributed_method`` importable."""
    env = dict(os.environ)
    extra = f"{_REPO / 'src'}{os.pathsep}{Path(__file__).parent}"
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{extra}{os.pathsep}{existing}" if existing else extra
    return env


def _spawn_worker(
    spec: Path, store: Path, worker_id: str, ttl: float = 10.0
) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "sweep",
            "--spec", str(spec),
            "--store", str(store),
            "--coordinate",
            "--worker-id", worker_id,
            "--lease-ttl", str(ttl),
        ],
        env=_worker_env(),
        cwd=spec.parent,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _accuracy_view(records: list[dict]) -> list[dict]:
    return [{k: r[k] for k in ACCURACY_FIELDS} for r in records]


def _execute_events(coord: Path) -> list[str]:
    return [e["fingerprint"] for e in read_audit(coord) if e["event"] == "execute"]


def test_cooperative_drain(tmp_path):
    budgets = 12
    spec = _write_spec(tmp_path, budgets)
    matrix = ScenarioMatrix.from_file(spec)
    fingerprints = [s.fingerprint() for s in matrix.expand()]
    assert len(fingerprints) == budgets

    # Reference: the ordinary in-process sequential sweep.
    sequential = run_matrix(matrix, workers=1).records

    # Baseline: ONE coordinated worker drains the whole matrix alone.
    solo_store = tmp_path / "solo" / "store.jsonl"
    solo_store.parent.mkdir()
    started = time.perf_counter()
    solo = _spawn_worker(spec, solo_store, "solo")
    assert solo.wait(timeout=600) == 0
    solo_wall = time.perf_counter() - started
    assert ResultStore(solo_store).missing(fingerprints) == []

    # Measured: THREE cooperating workers on one fresh shared store.
    store = tmp_path / "fleet" / "store.jsonl"
    store.parent.mkdir()
    coord = Path(f"{store}.coord")
    started = time.perf_counter()
    fleet = [_spawn_worker(spec, store, f"w{i}") for i in range(3)]
    for proc in fleet:
        assert proc.wait(timeout=600) == 0
    fleet_wall = time.perf_counter() - started

    # Gate: no scenario executed twice, fleet-wide (the audit log is the
    # ground truth — every worker appends an ``execute`` before running).
    executes = _execute_events(coord)
    assert sorted(executes) == sorted(set(executes)), "duplicate executions"
    assert set(executes) == set(fingerprints)

    # Gate: the shared store is bit-identical to the sequential run.
    final = ResultStore(store)
    fleet_records = [final.get(fp) for fp in fingerprints]
    assert _accuracy_view(fleet_records) == _accuracy_view(sequential)

    # Gate: cooperation actually bought wall-clock.
    ratio = fleet_wall / solo_wall
    per_worker = {
        worker: sum(
            1 for e in read_audit(coord)
            if e["event"] == "complete" and e["worker"] == worker
        )
        for worker in (f"w{i}" for i in range(3))
    }
    print_table(
        "Cooperative drain: 3 workers vs 1 (12 scenarios)",
        ["config", "wall (s)", "scenarios", "ratio"],
        [
            ["1 worker", f"{solo_wall:.2f}", budgets, "1.00"],
            [
                "3 workers",
                f"{fleet_wall:.2f}",
                "/".join(str(per_worker[f"w{i}"]) for i in range(3)),
                f"{ratio:.2f}",
            ],
        ],
    )
    write_results(
        _RESULTS_PATH,
        "cooperative_drain",
        {
            "scenarios": budgets,
            "scenario_delay_s": _DELAY,
            "solo_wall_s": solo_wall,
            "fleet_wall_s": fleet_wall,
            "ratio": ratio,
            "gate": _SPEEDUP_GATE,
            "per_worker_completions": per_worker,
            "duplicate_executions": len(executes) - len(set(executes)),
            "bit_identical": True,
        },
    )
    assert ratio < _SPEEDUP_GATE, (
        f"3 cooperating workers took {ratio:.2f}x one worker's wall-clock "
        f"(gate: < {_SPEEDUP_GATE})"
    )


def test_crash_recovery(tmp_path):
    budgets = 5
    spec = _write_spec(tmp_path, budgets)
    matrix = ScenarioMatrix.from_file(spec)
    fingerprints = [s.fingerprint() for s in matrix.expand()]
    store = tmp_path / "store.jsonl"
    coord = Path(f"{store}.coord")
    lease_dir = coord / "leases"

    # The victim claims its first scenario, then dies mid-execution with
    # the lease on disk and the heartbeat silenced.
    victim = _spawn_worker(spec, store, "victim", ttl=2.0)
    deadline = time.monotonic() + 120
    try:
        while not (lease_dir.is_dir() and any(lease_dir.glob("*.lease"))):
            assert time.monotonic() < deadline, "victim never claimed a lease"
            time.sleep(0.02)
    finally:
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)
    assert any(lease_dir.glob("*.lease")), "SIGKILL left no lease behind"

    started = time.perf_counter()
    survivor = _spawn_worker(spec, store, "survivor", ttl=2.0)
    assert survivor.wait(timeout=600) == 0
    recovery_wall = time.perf_counter() - started

    # The sweep completed despite the crash, with the victim's leases
    # reclaimed (not waited out forever) and nothing executed twice *per
    # claim* — the reclaimed scenario legitimately re-executes.
    final = ResultStore(store)
    assert final.missing(fingerprints) == []
    assert list(lease_dir.glob("*.lease")) == []
    events = read_audit(coord)
    reclaims = [e for e in events if e["event"] == "reclaim"]
    assert reclaims, "survivor never reclaimed the victim's lease"
    assert all(e["stale_worker"] == "victim" for e in reclaims)
    assert all(e["worker"] == "survivor" for e in reclaims)

    sequential = run_matrix(matrix, workers=1).records
    assert _accuracy_view([final.get(fp) for fp in fingerprints]) == _accuracy_view(
        sequential
    )

    print_table(
        "Crash recovery: SIGKILL'd worker reclaimed (5 scenarios)",
        ["event", "count"],
        [
            ["scenarios completed", budgets],
            ["leases reclaimed", len(reclaims)],
            ["recovery wall (s)", f"{recovery_wall:.2f}"],
        ],
    )
    write_results(
        _RESULTS_PATH,
        "crash_recovery",
        {
            "scenarios": budgets,
            "lease_ttl_s": 2.0,
            "reclaimed_leases": len(reclaims),
            "recovery_wall_s": recovery_wall,
            "bit_identical": True,
        },
    )
