"""Crash-recovery test: a cooperative worker is SIGKILL'd mid-scenario and
a survivor reclaims its stale lease, completing the sweep bit-identically.

Worker A is a real ``repro sweep --coordinate`` subprocess (so the kill is
a kill: no atexit handlers, no lease cleanup — exactly the failure the
lease TTL exists for).  Worker B runs in-process for easy assertions.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.coordination import read_audit
from repro.evaluation.matrix import CoordinateOptions, ScenarioMatrix, run_matrix
from repro.evaluation.store import ResultStore

REPO = Path(__file__).resolve().parent.parent

#: Per-scenario sleep: long enough that the kill lands mid-scenario, short
#: enough to keep the test quick.
DELAY = 0.6

SPEC_TOML = f"""
[matrix]
datasets = [{{ name = "hospital", rows = 40 }}]
error_profiles = ["native"]
label_budgets = [0.1, 0.2, 0.3]
methods = [{{ name = "custom_components:slow_unique_flagger", delay = {DELAY} }}]
trials = 1
seed = 11
"""


def subprocess_env() -> dict[str, str]:
    """The subprocess needs ``repro`` and ``custom_components`` importable."""
    env = dict(os.environ)
    extra = f"{REPO / 'src'}{os.pathsep}{REPO / 'tests'}"
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{extra}{os.pathsep}{existing}" if existing else extra
    return env


def wait_for_lease(lease_dir: Path, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if lease_dir.is_dir() and any(lease_dir.glob("*.lease")):
            return
        time.sleep(0.02)
    raise AssertionError(f"worker A never claimed a lease under {lease_dir}")


def wait_for_audit_bytes(audit_path: Path, timeout: float = 60.0) -> None:
    """Wait until worker A has appended at least one full audit line."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if audit_path.is_file() and b"\n" in audit_path.read_bytes():
            return
        time.sleep(0.02)
    raise AssertionError(f"worker A never wrote an audit line to {audit_path}")


def test_killed_worker_is_reclaimed_and_sweep_completes(tmp_path):
    spec_path = tmp_path / "spec.toml"
    spec_path.write_text(SPEC_TOML, encoding="utf-8")
    store_path = tmp_path / "store.jsonl"
    coord = Path(f"{store_path}.coord")

    matrix = ScenarioMatrix.from_file(spec_path)
    fingerprints = [s.fingerprint() for s in matrix.expand()]
    assert len(fingerprints) == 3

    # Worker A: a real CLI worker, killed the moment it holds a lease.
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "sweep",
            "--spec", str(spec_path),
            "--store", str(store_path),
            "--coordinate",
            "--worker-id", "A",
            "--lease-ttl", "2",
        ],
        env=subprocess_env(),
        cwd=tmp_path,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        wait_for_lease(coord / "leases")
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)

    # A died holding a lease: no release event ever made it to the audit
    # log, so the lease file is still on disk with a silent heartbeat.
    leftover = list((coord / "leases").glob("*.lease"))
    assert leftover, "SIGKILL should have left A's lease behind"

    # Worker B: picks up the survivors, then reclaims A's stale lease.
    report = run_matrix(
        matrix,
        store=ResultStore(store_path),
        executor="serial",
        coordinate=CoordinateOptions(worker_id="B", ttl=1.5, poll_interval=0.1),
    )

    # The sweep completed despite the crash.
    final = ResultStore(store_path)
    assert final.missing(fingerprints) == []
    assert report.total == 3
    assert list((coord / "leases").glob("*.lease")) == []

    # B reclaimed at least one of A's leases (A may have finished zero or
    # more scenarios before the kill; whatever it held was reclaimed).
    events = read_audit(coord)
    reclaims = [e for e in events if e["event"] == "reclaim"]
    assert reclaims, f"no reclaim in audit log: {[e['event'] for e in events]}"
    assert all(e["stale_worker"] == "A" for e in reclaims)
    assert all(e["worker"] == "B" for e in reclaims)

    # Crash, reclaim, and mixed ownership left no trace in the results:
    # bit-identical to a plain sequential run.
    sequential = run_matrix(matrix, workers=1).records
    accuracy = ("fingerprint", "spec", "metrics", "trials", "mean_f1", "std_f1")
    view = lambda records: [{k: r[k] for k in accuracy} for r in records]
    assert view(report.records) == view(sequential)


def test_killed_worker_under_active_fault_schedules(tmp_path):
    """SIGKILL recovery while *both* workers run under fault injection.

    Worker A is a CLI subprocess injecting from the inherited
    ``REPRO_FAULTS`` environment (no code cooperation — the production
    fleet path), including a torn first audit write; it dies by SIGKILL
    holding a lease.  Worker B survives its own in-process schedule and
    completes the sweep.  Duplicate executions are permitted only for
    fingerprints the reclaim actually transferred.
    """
    from repro.faults import RetryPolicy, inject, use_policy

    spec_path = tmp_path / "spec.toml"
    spec_path.write_text(SPEC_TOML, encoding="utf-8")
    store_path = tmp_path / "store.jsonl"
    coord = Path(f"{store_path}.coord")

    matrix = ScenarioMatrix.from_file(spec_path)
    fingerprints = [s.fingerprint() for s in matrix.expand()]

    env = subprocess_env()
    env["REPRO_FAULTS"] = (
        "lease.audit=torn:1;lease.claim=first:1:EAGAIN;"
        "store.append=first:1:EAGAIN"
    )
    env["REPRO_RETRY_BASE_DELAY"] = "0"  # the fleet retries without sleeping
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "sweep",
            "--spec", str(spec_path),
            "--store", str(store_path),
            "--coordinate",
            "--worker-id", "A",
            "--lease-ttl", "2",
        ],
        env=env,
        cwd=tmp_path,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        wait_for_lease(coord / "leases")
        # A full audit line on disk proves A's claim committed — and that
        # the torn first write was healed — before the kill lands.
        wait_for_audit_bytes(coord / "audit.jsonl")
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)

    # The torn first audit append left a healed fragment: at least one
    # non-JSON line that every reader skips.  Proof the environment spec
    # actually injected inside the subprocess.
    raw_lines = [
        line
        for line in (coord / "audit.jsonl").read_bytes().split(b"\n")
        if line.strip()
    ]
    malformed = []
    for line in raw_lines:
        try:
            json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            malformed.append(line)
    assert malformed, "REPRO_FAULTS never tore an audit write in worker A"

    # Worker B: drains the rest under its own in-process schedule.
    policy = RetryPolicy(max_attempts=4, base_delay=0.01, sleep=lambda s: None)
    with use_policy(policy), inject(
        "store.append=torn:1;lease.claim=first:2:EAGAIN"
    ) as injector:
        report = run_matrix(
            matrix,
            store=ResultStore(store_path),
            executor="serial",
            coordinate=CoordinateOptions(worker_id="B", ttl=1.5, poll_interval=0.1),
        )
        snapshot = injector.snapshot()
    assert sum(point["fired"] for point in snapshot.values()) > 0

    final = ResultStore(store_path)
    assert final.missing(fingerprints) == []
    assert report.total == 3
    assert list((coord / "leases").glob("*.lease")) == []

    events = read_audit(coord)
    reclaimed = {e["fingerprint"] for e in events if e["event"] == "reclaim"}
    assert reclaimed, "B never reclaimed A's stale lease"

    # Zero duplicate executions *except* where the crash forced a rerun:
    # only reclaimed fingerprints may appear twice in the execute log.
    executes = [e["fingerprint"] for e in events if e["event"] == "execute"]
    duplicated = {fp for fp in executes if executes.count(fp) > 1}
    assert duplicated <= reclaimed

    # Faults + crash + reclaim still yield the sequential ground truth.
    sequential = run_matrix(matrix, workers=1).records
    accuracy = ("fingerprint", "spec", "metrics", "trials", "mean_f1", "std_f1")
    view = lambda records: [{k: r[k] for k in accuracy} for r in records]
    assert view(report.records) == view(sequential)
