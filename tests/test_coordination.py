"""Tests for :mod:`repro.coordination`: leases, heartbeats, the hardened
concurrent-appender :class:`ResultStore`, and the coordinated claim loop."""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
from pathlib import Path

import pytest

from repro.coordination import (
    CoordinationError,
    HeartbeatThread,
    WorkQueue,
    coordination_dir,
    default_worker_id,
    iter_leases,
    read_audit,
)
from repro.evaluation.matrix import CoordinateOptions, ScenarioMatrix, run_matrix
from repro.evaluation.store import ResultStore

FP_A = "a" * 64
FP_B = "b" * 64


class FakeClock:
    """An advanceable wall clock so TTL logic needs no real sleeps."""

    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


# ---------------------------------------------------------------------------
# WorkQueue: claim / renew / release / reclaim
# ---------------------------------------------------------------------------


class TestWorkQueue:
    def test_claim_is_exclusive(self, tmp_path):
        q1 = WorkQueue(tmp_path, worker_id="w1")
        q2 = WorkQueue(tmp_path, worker_id="w2")
        assert q1.claim(FP_A)
        assert not q2.claim(FP_A)
        assert q1.held() == {FP_A}
        assert q2.held() == set()

    def test_release_frees_the_fingerprint(self, tmp_path):
        q1 = WorkQueue(tmp_path, worker_id="w1")
        q2 = WorkQueue(tmp_path, worker_id="w2")
        assert q1.claim(FP_A)
        q1.release(FP_A, event="complete")
        assert q1.held() == set()
        assert q2.claim(FP_A)

    def test_lease_payload_round_trip(self, tmp_path, clock):
        q = WorkQueue(tmp_path, worker_id="w1", clock=clock)
        q.claim(FP_A)
        info = q.read_lease(FP_A)
        assert info is not None
        assert info.worker == "w1"
        assert info.fingerprint == FP_A
        assert info.claimed_at == info.renewed_at == clock.now

    def test_renew_refreshes_heartbeat_only(self, tmp_path, clock):
        q = WorkQueue(tmp_path, worker_id="w1", clock=clock)
        q.claim(FP_A)
        claimed = clock.now
        clock.advance(30.0)
        assert q.renew(FP_A)
        info = q.read_lease(FP_A)
        assert info.claimed_at == claimed
        assert info.renewed_at == clock.now

    def test_renew_detects_a_reclaimed_lease(self, tmp_path, clock):
        q1 = WorkQueue(tmp_path, worker_id="w1", clock=clock)
        q2 = WorkQueue(tmp_path, worker_id="w2", clock=clock)
        q1.claim(FP_A)
        # w2 reclaims behind w1's back (as if w1 slept past the TTL).
        os.unlink(q1.lease_path(FP_A))
        q2.claim(FP_A)
        assert not q1.renew(FP_A)
        assert q1.held() == set()
        # The usurper's lease is untouched.
        assert q2.read_lease(FP_A).worker == "w2"
        events = [e["event"] for e in read_audit(tmp_path) if e["worker"] == "w1"]
        assert "lost" in events

    def test_renew_without_claim_is_false(self, tmp_path):
        q = WorkQueue(tmp_path, worker_id="w1")
        assert not q.renew(FP_A)

    def test_reclaim_stale_lease(self, tmp_path, clock):
        q1 = WorkQueue(tmp_path, worker_id="w1", ttl=60.0, clock=clock)
        q2 = WorkQueue(tmp_path, worker_id="w2", ttl=60.0, clock=clock)
        q1.claim(FP_A)
        clock.advance(61.0)
        assert q2.reclaim_stale() == [FP_A]
        assert q2.read_lease(FP_A) is None
        assert q2.claim(FP_A)
        reclaims = [e for e in read_audit(tmp_path) if e["event"] == "reclaim"]
        assert len(reclaims) == 1
        assert reclaims[0]["stale_worker"] == "w1"
        assert reclaims[0]["worker"] == "w2"

    def test_fresh_lease_is_not_reclaimed(self, tmp_path, clock):
        q1 = WorkQueue(tmp_path, worker_id="w1", ttl=60.0, clock=clock)
        q2 = WorkQueue(tmp_path, worker_id="w2", ttl=60.0, clock=clock)
        q1.claim(FP_A)
        clock.advance(59.0)
        assert q2.reclaim_stale() == []
        assert q2.read_lease(FP_A).worker == "w1"

    def test_renewal_defeats_reclaim(self, tmp_path, clock):
        q1 = WorkQueue(tmp_path, worker_id="w1", ttl=60.0, clock=clock)
        q2 = WorkQueue(tmp_path, worker_id="w2", ttl=60.0, clock=clock)
        q1.claim(FP_A)
        for _ in range(10):  # heartbeat every 30s for 5 minutes
            clock.advance(30.0)
            assert q1.renew(FP_A)
        assert q2.reclaim_stale() == []

    def test_own_stale_lease_is_not_reclaimed(self, tmp_path, clock):
        q1 = WorkQueue(tmp_path, worker_id="w1", ttl=60.0, clock=clock)
        q1.claim(FP_A)
        clock.advance(120.0)
        assert q1.reclaim_stale() == []

    def test_reclaim_scoped_to_fingerprints(self, tmp_path, clock):
        q1 = WorkQueue(tmp_path, worker_id="w1", ttl=60.0, clock=clock)
        q2 = WorkQueue(tmp_path, worker_id="w2", ttl=60.0, clock=clock)
        q1.claim(FP_A)
        q1.claim(FP_B)
        clock.advance(61.0)
        assert q2.reclaim_stale([FP_B]) == [FP_B]
        assert q2.read_lease(FP_A).worker == "w1"

    def test_partially_written_lease_reads_as_fresh(self, tmp_path, clock):
        q = WorkQueue(tmp_path, worker_id="w1", ttl=60.0, clock=clock)
        # A racing claimer created the file but has not written it yet.
        path = q.lease_path(FP_A)
        path.touch()
        info = q.read_lease(FP_A)
        assert info.worker == "(claiming)"
        # mtime is wall-clock "now", far beyond the fake clock: never stale.
        assert q.reclaim_stale() == []

    def test_invalid_ttl_rejected(self, tmp_path):
        with pytest.raises(CoordinationError, match="TTL"):
            WorkQueue(tmp_path, ttl=0.0)

    def test_iter_leases(self, tmp_path, clock):
        q = WorkQueue(tmp_path, worker_id="w1", clock=clock)
        q.claim(FP_A)
        q.claim(FP_B)
        assert {i.fingerprint for i in iter_leases(tmp_path)} == {FP_A, FP_B}
        assert [i.fingerprint for i in iter_leases(tmp_path, [FP_B])] == [FP_B]
        assert list(iter_leases(tmp_path / "nope")) == []

    def test_default_worker_id_has_pid(self):
        assert str(os.getpid()) in default_worker_id()

    def test_coordination_dir_convention(self):
        assert coordination_dir("results.jsonl") == Path("results.jsonl.coord")

    def test_audit_is_appended_per_transition(self, tmp_path):
        q = WorkQueue(tmp_path, worker_id="w1")
        q.claim(FP_A)
        q.audit("execute", FP_A)
        q.release(FP_A, event="complete")
        events = [(e["event"], e["fingerprint"]) for e in read_audit(tmp_path)]
        assert events == [("claim", FP_A), ("execute", FP_A), ("complete", FP_A)]


# ---------------------------------------------------------------------------
# HeartbeatThread
# ---------------------------------------------------------------------------


class TestHeartbeat:
    def test_keeps_lease_fresh_through_a_long_scenario(self, tmp_path):
        q = WorkQueue(tmp_path, worker_id="w1", ttl=0.4)
        observer = WorkQueue(tmp_path, worker_id="w2", ttl=0.4)
        q.claim(FP_A)
        with HeartbeatThread(q, interval=0.05) as hb:
            time.sleep(0.6)  # well past the TTL without renewals
            assert observer.reclaim_stale() == []
            assert hb.renewals >= 2
        info = observer.read_lease(FP_A)
        assert info.renewed_at > info.claimed_at

    def test_records_lost_leases(self, tmp_path):
        q = WorkQueue(tmp_path, worker_id="w1", ttl=0.4)
        usurper = WorkQueue(tmp_path, worker_id="w2", ttl=0.4)
        q.claim(FP_A)
        os.unlink(q.lease_path(FP_A))
        usurper.claim(FP_A)
        with HeartbeatThread(q, interval=0.05) as hb:
            time.sleep(0.2)
        assert FP_A in hb.lost
        assert q.held() == set()

    def test_interval_must_undercut_ttl(self, tmp_path):
        q = WorkQueue(tmp_path, worker_id="w1", ttl=1.0)
        with pytest.raises(CoordinationError, match="below the lease"):
            HeartbeatThread(q, interval=1.0)
        with pytest.raises(CoordinationError, match="positive"):
            HeartbeatThread(q, interval=0.0)

    def test_default_interval_is_quarter_ttl(self, tmp_path):
        q = WorkQueue(tmp_path, worker_id="w1", ttl=60.0)
        assert HeartbeatThread(q).interval == 15.0


# ---------------------------------------------------------------------------
# ResultStore hardening: refresh / concurrent appenders / compact
# ---------------------------------------------------------------------------


def _append_records(path: str, prefix: str, count: int, barrier) -> None:
    """Subprocess body: hammer the shared store with appends."""
    store = ResultStore(path)
    barrier.wait()  # maximise interleaving across the processes
    for i in range(count):
        store.put({"fingerprint": f"{prefix}-{i:04d}", "payload": "x" * (i % 97)})


class TestResultStoreConcurrency:
    def test_two_processes_append_without_shearing(self, tmp_path):
        """Satellite: single-write O_APPEND records survive interleaving."""
        path = tmp_path / "store.jsonl"
        count = 200
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        procs = [
            ctx.Process(target=_append_records, args=(str(path), prefix, count, barrier))
            for prefix in ("p0", "p1")
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        # Every line parses — no sheared/interleaved records at all.
        lines = path.read_bytes().decode("utf-8").splitlines()
        assert len(lines) == 2 * count
        for line in lines:
            record = json.loads(line)
            assert set(record) == {"fingerprint", "payload"}
        store = ResultStore(path)
        assert store.skipped_lines == 0
        assert len(store) == 2 * count

    def test_refresh_sees_other_writers(self, tmp_path):
        path = tmp_path / "store.jsonl"
        reader = ResultStore(path)
        writer = ResultStore(path)
        writer.put({"fingerprint": FP_A})
        assert FP_A not in reader
        assert reader.refresh() == 1
        assert FP_A in reader
        assert reader.refresh() == 0  # idempotent when nothing new

    def test_refresh_ignores_unterminated_tail_until_complete(self, tmp_path):
        path = tmp_path / "store.jsonl"
        reader = ResultStore(path)
        writer = ResultStore(path)
        writer.put({"fingerprint": FP_A})
        assert reader.refresh() == 1
        # A writer is mid-append: the line has no terminator yet.
        half = json.dumps({"fingerprint": FP_B})
        with path.open("a") as f:
            f.write(half[:20])
        assert reader.refresh() == 0
        assert FP_B not in reader
        with path.open("a") as f:
            f.write(half[20:] + "\n")
        assert reader.refresh() == 1
        assert FP_B in reader
        assert reader.skipped_lines == 0

    def test_load_heals_killed_run_tail(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.put({"fingerprint": FP_A})
        with path.open("a") as f:
            f.write('{"fingerprint": "half-writ')  # kill -9 mid-append
        reloaded = ResultStore(path)
        assert reloaded.skipped_lines == 1
        assert reloaded.fingerprints == {FP_A}
        # The tail was newline-terminated, so the next append starts clean
        # and is visible to fresh loads.
        reloaded.put({"fingerprint": FP_B})
        third = ResultStore(path)
        assert third.fingerprints == {FP_A, FP_B}

    def test_missing_preserves_order(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        store.put({"fingerprint": FP_B})
        assert store.missing([FP_A, FP_B, "c" * 64]) == [FP_A, "c" * 64]

    def test_compact_keeps_latest_wins_only(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        for round_ in range(5):
            store.put({"fingerprint": FP_A, "round": round_})
            store.put({"fingerprint": FP_B, "round": round_})
        with path.open("a") as f:
            f.write("not json at all\n")
        assert len(path.read_bytes().decode().splitlines()) == 11
        store2 = ResultStore(path)
        kept, dropped = store2.compact()
        assert (kept, dropped) == (2, 9)
        lines = path.read_bytes().decode().splitlines()
        assert len(lines) == 2
        assert {json.loads(l)["round"] for l in lines} == {4}
        # The compacted store keeps serving and appending normally.
        assert store2.get(FP_A)["round"] == 4
        store2.put({"fingerprint": FP_A, "round": 99})
        assert ResultStore(path).get(FP_A)["round"] == 99
        assert ResultStore(path).skipped_lines == 0

    def test_compact_empty_store(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        assert store.compact() == (0, 0)


# ---------------------------------------------------------------------------
# Coordinated run_matrix: the claim loop with the lease claim source
# ---------------------------------------------------------------------------

MATRIX_SPEC = {
    "datasets": [{"name": "hospital", "rows": 60}],
    "error_profiles": ["native"],
    "label_budgets": [0.1, 0.2],
    "methods": ["cv", "od"],
    "trials": 2,
    "seed": 5,
}

ACCURACY_FIELDS = ("fingerprint", "spec", "metrics", "trials", "mean_f1", "std_f1")


def accuracy_view(records: list[dict]) -> list[dict]:
    return [{k: r[k] for k in ACCURACY_FIELDS} for r in records]


@pytest.fixture(scope="module")
def matrix() -> ScenarioMatrix:
    return ScenarioMatrix.from_dict(MATRIX_SPEC)


@pytest.fixture(scope="module")
def sequential(matrix) -> list[dict]:
    return run_matrix(matrix, workers=1).records


class TestCoordinatedRunMatrix:
    def test_requires_a_store(self, matrix):
        with pytest.raises(ValueError, match="ledger"):
            run_matrix(matrix, coordinate=CoordinateOptions())

    def test_single_worker_drains_and_matches_sequential(
        self, matrix, sequential, tmp_path
    ):
        store = ResultStore(tmp_path / "store.jsonl")
        report = run_matrix(
            matrix,
            store=store,
            executor="serial",
            coordinate=CoordinateOptions(worker_id="solo", ttl=30.0),
        )
        assert report.executed == 4
        assert report.cached == 0
        assert accuracy_view(report.records) == accuracy_view(sequential)
        assert report.coordination["worker"] == "solo"
        assert report.coordination["remote"] == 0
        # All leases released; audit shows one execution per scenario.
        assert list(iter_leases(report.coordination["dir"])) == []
        executes = [
            e["fingerprint"]
            for e in read_audit(report.coordination["dir"])
            if e["event"] == "execute"
        ]
        assert len(executes) == len(set(executes)) == 4

    def test_two_cooperating_workers_split_the_matrix(
        self, matrix, sequential, tmp_path
    ):
        store_path = tmp_path / "store.jsonl"
        reports: dict[str, object] = {}
        errors: list[BaseException] = []

        def worker(name: str) -> None:
            try:
                # Each worker gets its own ResultStore handle (one per
                # process in real deployments; ResultStore is not shared
                # across threads).
                reports[name] = run_matrix(
                    matrix,
                    store=ResultStore(store_path),
                    executor="serial",
                    coordinate=CoordinateOptions(
                        worker_id=name, ttl=30.0, poll_interval=0.05
                    ),
                )
            except BaseException as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(name,)) for name in ("w1", "w2")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert not errors
        assert set(reports) == {"w1", "w2"}

        # Cooperative split: every scenario executed exactly once globally.
        total_executed = sum(r.executed for r in reports.values())
        assert total_executed == 4
        executes = [
            e["fingerprint"]
            for e in read_audit(str(store_path) + ".coord")
            if e["event"] == "execute"
        ]
        assert len(executes) == len(set(executes)) == 4

        # Both workers return the COMPLETE matrix, bit-identical to
        # sequential, regardless of who ran what.
        for report in reports.values():
            assert accuracy_view(report.records) == accuracy_view(sequential)
            assert report.total == 4

    def test_completed_work_is_never_reclaimed_across_restarts(
        self, matrix, sequential, tmp_path
    ):
        store_path = tmp_path / "store.jsonl"
        first = run_matrix(
            matrix,
            store=ResultStore(store_path),
            executor="serial",
            coordinate=CoordinateOptions(worker_id="w1", ttl=30.0),
        )
        assert first.executed == 4
        # A later worker (fresh process, same store) finds nothing to do.
        second = run_matrix(
            matrix,
            store=ResultStore(store_path),
            executor="serial",
            coordinate=CoordinateOptions(worker_id="w2", ttl=30.0),
        )
        assert second.executed == 0
        assert second.cached == 4
        assert second.coordination["initially_cached"] == 4
        assert accuracy_view(second.records) == accuracy_view(sequential)
        executes = [
            e for e in read_audit(str(store_path) + ".coord") if e["event"] == "execute"
        ]
        assert len(executes) == 4  # w2 added none

    def test_stale_lease_from_dead_worker_is_reclaimed(
        self, matrix, sequential, tmp_path
    ):
        """A lease with an ancient heartbeat must not block the sweep."""
        store_path = tmp_path / "store.jsonl"
        coord = str(store_path) + ".coord"
        victim_fp = matrix.expand()[0].fingerprint()
        # Forge a dead worker's lease: claimed long ago, never renewed.
        dead = WorkQueue(coord, worker_id="dead", ttl=0.5, clock=lambda: 1.0)
        dead.claim(victim_fp)
        report = run_matrix(
            matrix,
            store=ResultStore(store_path),
            executor="serial",
            coordinate=CoordinateOptions(worker_id="survivor", ttl=0.5, poll_interval=0.05),
        )
        assert report.executed == 4
        assert accuracy_view(report.records) == accuracy_view(sequential)
        reclaims = [e for e in read_audit(coord) if e["event"] == "reclaim"]
        assert len(reclaims) == 1
        assert reclaims[0]["fingerprint"] == victim_fp
        assert reclaims[0]["stale_worker"] == "dead"
        assert reclaims[0]["worker"] == "survivor"

    def test_coordinated_process_pool_drains(self, matrix, sequential, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        report = run_matrix(
            matrix,
            store=store,
            workers=2,
            coordinate=CoordinateOptions(worker_id="pool", ttl=30.0, poll_interval=0.05),
        )
        assert report.executed == 4
        assert report.workers == 2
        assert accuracy_view(report.records) == accuracy_view(sequential)

    def test_interrupt_releases_leases_as_abort(self, matrix, tmp_path):
        """A Ctrl-C mid-scenario frees the lease for peers at once, audited
        as ``abort`` (not ``failed``: the scenario itself did not fail)."""
        store = ResultStore(tmp_path / "store.jsonl")
        victim = matrix.expand()[1].fingerprint()

        def interrupted_runner(s):
            if s.fingerprint() == victim:
                raise KeyboardInterrupt
            return {"fingerprint": s.fingerprint(), "spec": s.to_dict()}

        with pytest.raises(KeyboardInterrupt):
            run_matrix(
                matrix,
                store=store,
                executor="serial",
                scenario_runner=interrupted_runner,
                coordinate=CoordinateOptions(worker_id="w1", ttl=30.0),
            )
        coord = coordination_dir(store.path)
        assert list(iter_leases(coord)) == []
        events = [e["event"] for e in read_audit(coord) if e["fingerprint"] == victim]
        assert events == ["claim", "execute", "abort"]
        assert len(store) == 1  # the scenario before the interrupt landed

    def test_on_result_distinguishes_cached_from_run(
        self, matrix, sequential, tmp_path
    ):
        store_path = tmp_path / "store.jsonl"
        # Half the matrix was completed before this worker ever started.
        pre = ResultStore(store_path)
        for record in sequential[:2]:
            pre.put(record)
        pre_fps = {r["fingerprint"] for r in sequential[:2]}
        seen: list[tuple[str, str]] = []

        def observe(record: dict) -> None:
            source = (
                "remote"
                if record.get("remote")
                else "cached" if record.get("cached") else "run"
            )
            seen.append((record["fingerprint"], source))

        report = run_matrix(
            matrix,
            store=ResultStore(store_path),
            executor="serial",
            coordinate=CoordinateOptions(worker_id="local", ttl=30.0),
            on_result=observe,
        )
        assert report.executed == 2
        sources = dict(seen)
        for fp in pre_fps:
            assert sources[fp] == "cached"  # present before this worker began
        assert sorted(s for _, s in seen) == ["cached", "cached", "run", "run"]
