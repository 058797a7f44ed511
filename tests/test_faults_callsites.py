"""Errno-injection tests for every retried I/O call site.

Each subsystem is exercised under the deterministic fault injector at its
named fault point: the transient path (fault heals within the retry
budget), the exhaustion path (fault outlasts the budget), and the fatal
path (never retried).  No test ever real-sleeps — the ambient policy's
``sleep`` is a recording stub.
"""

from __future__ import annotations

import errno
import json
import os
import threading

import numpy as np
import pytest

from repro.artifacts.store import ArtifactStore
from repro.coordination.heartbeat import HeartbeatThread
from repro.coordination.leases import WorkQueue, read_audit
from repro.dataset.sharded import ShardedDataset, ShardQuarantinedError, ShardWriter
from repro.evaluation.store import ResultStore
from repro.faults import RetryPolicy, inject, use_policy


@pytest.fixture(autouse=True)
def fast_policy():
    """Ambient policy with injectable (recorded, never real) sleeps."""
    sleeps: list[float] = []
    policy = RetryPolicy(max_attempts=4, base_delay=0.01, seed=1,
                         sleep=sleeps.append)
    with use_policy(policy):
        yield policy


# --------------------------------------------------------------------------- #
# ArtifactStore (satellite: fatal-errno classification + degraded flag)
# --------------------------------------------------------------------------- #


PAYLOAD = {"weights": np.arange(6, dtype=np.float64).reshape(2, 3), "bias": 0.5}


def assert_payload(stored: dict) -> None:
    assert stored is not None
    np.testing.assert_array_equal(stored["weights"], PAYLOAD["weights"])
    assert stored["bias"] == 0.5


class TestArtifactStoreFaults:
    def test_transient_write_fault_is_retried(self, tmp_path, fast_policy):
        store = ArtifactStore(tmp_path)
        with inject("artifacts.object_write=first:2:EAGAIN"):
            store.put("ab" * 32, PAYLOAD)
        assert store.stats.write_errors == 0
        assert not store.stats.degraded
        assert fast_policy.stats.retries == 2
        # The object landed on disk: a cold store serves it.
        assert_payload(ArtifactStore(tmp_path).get("ab" * 32))

    def test_fatal_write_fault_degrades_and_warns_once(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with inject("artifacts.object_write=first:2:ENOSPC"):
            with pytest.warns(RuntimeWarning, match="fatal disk fault"):
                store.put("ab" * 32, PAYLOAD)
            # The second fatal fault is counted silently — no warning spam.
            import warnings as _warnings

            with _warnings.catch_warnings():
                _warnings.simplefilter("error")
                store.put("cd" * 32, PAYLOAD)
        assert store.stats.fatal_errors == 2
        assert store.stats.write_errors == 2
        assert store.stats.degraded
        assert "DEGRADED" in store.stats.summary()
        assert store.stats.as_dict()["degraded"] is True
        # The memory tier still serves both payloads.
        assert_payload(store.get("ab" * 32))
        assert_payload(store.get("cd" * 32))

    def test_exhausted_write_budget_is_not_fatal(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with inject("artifacts.object_write=first:99:EAGAIN"):
            store.put("ab" * 32, PAYLOAD)
        assert store.stats.write_errors == 1
        assert store.stats.fatal_errors == 0
        assert not store.stats.degraded
        assert_payload(store.get("ab" * 32))  # memory tier

    def test_transient_read_fault_is_retried(self, tmp_path, fast_policy):
        ArtifactStore(tmp_path).put("ab" * 32, PAYLOAD)
        cold = ArtifactStore(tmp_path)
        with inject("artifacts.object_read=first:2:EIO"):
            assert_payload(cold.get("ab" * 32))
        assert cold.stats.disk_hits == 1
        assert fast_policy.stats.retries == 2

    def test_persistent_read_fault_misses_without_destroying_the_object(
        self, tmp_path
    ):
        ArtifactStore(tmp_path).put("ab" * 32, PAYLOAD)
        cold = ArtifactStore(tmp_path)
        with inject("artifacts.object_read=first:99:EIO"):
            assert cold.get("ab" * 32) is None
        assert cold.stats.read_errors == 1
        assert cold.stats.corrupt_dropped == 0
        # The bytes were intact all along: once the fault clears, it hits.
        assert_payload(cold.get("ab" * 32))

    def test_corrupt_content_is_still_dropped(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("ab" * 32, PAYLOAD)
        store.clear_memory()
        store.object_path("ab" * 32).write_bytes(b"not an npz")
        assert store.get("ab" * 32) is None
        assert store.stats.corrupt_dropped == 1
        assert not store.object_path("ab" * 32).exists()

    def test_torn_index_append_is_healed(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with inject("artifacts.index_append=torn:1"):
            store.put("ab" * 32, PAYLOAD)
        store.put("cd" * 32, PAYLOAD)
        assert {r["key"] for r in store.index()} == {"ab" * 32, "cd" * 32}

    def test_index_append_fault_never_fails_the_put(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with inject("artifacts.index_append=first:99:EAGAIN"):
            store.put("ab" * 32, PAYLOAD)
        # The object landed even though the manifest append kept faulting.
        assert_payload(ArtifactStore(tmp_path).get("ab" * 32))
        assert list(store.index()) == []


# --------------------------------------------------------------------------- #
# ResultStore (satellite: compaction temp-file hygiene)
# --------------------------------------------------------------------------- #


def record(fp: str, **extra) -> dict:
    return {"fingerprint": fp, "metrics": {"f1": 0.5}, **extra}


def json_line(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


class TestResultStoreFaults:
    def test_transient_append_fault_is_retried(self, tmp_path, fast_policy):
        store = ResultStore(tmp_path / "s.jsonl")
        with inject("store.append=first:2:EAGAIN"):
            store.put(record("aa"))
        assert fast_policy.stats.retries == 2
        reloaded = ResultStore(tmp_path / "s.jsonl")
        assert reloaded.get("aa") == record("aa")
        assert reloaded.skipped_lines == 0

    def test_torn_append_is_healed_before_the_retry(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.put(record("aa"))
        with inject("store.append=torn:1"):
            store.put(record("bb"))
        reloaded = ResultStore(tmp_path / "s.jsonl")
        # Both records parse; the torn fragment is one healed, skipped line.
        assert reloaded.get("aa") == record("aa")
        assert reloaded.get("bb") == record("bb")
        assert reloaded.skipped_lines == 1

    def test_peer_record_after_a_torn_fragment_is_recovered(self, tmp_path):
        """Regression: a peer's O_APPEND line landing between a torn
        fragment and its healing newline shares the fragment's line; every
        reader used to drop the peer's complete record with it."""
        x = json_line(record("x" * 64, metrics={"f1": 0.25, "note": "é{"}))
        y = json_line(record("y" * 64))
        path = tmp_path / "s.jsonl"
        # The fragment keeps nested and in-string braces: decoy starts.
        path.write_bytes(x[: len(x) - 4] + y + b"\n" + x)
        reloaded = ResultStore(path)
        assert reloaded.fingerprints == {"x" * 64, "y" * 64}
        assert reloaded.skipped_lines == 1  # the fragment still counts

    def test_exhausted_append_raises_and_leaves_store_parseable(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.put(record("aa"))
        with inject("store.append=first:99:EAGAIN"):
            with pytest.raises(OSError):
                store.put(record("bb"))
        reloaded = ResultStore(tmp_path / "s.jsonl")
        assert reloaded.get("aa") == record("aa")
        assert "bb" not in reloaded

    def test_fatal_append_raises_immediately(self, tmp_path, fast_policy):
        store = ResultStore(tmp_path / "s.jsonl")
        with inject("store.append=first:1:ENOSPC"):
            with pytest.raises(OSError) as excinfo:
                store.put(record("aa"))
        assert excinfo.value.errno == errno.ENOSPC
        assert fast_policy.stats.retries == 0

    def test_transient_refresh_fault_is_retried(self, tmp_path):
        path = tmp_path / "s.jsonl"
        writer = ResultStore(path)
        reader = ResultStore(path)
        writer.put(record("aa"))
        with inject("store.read=first:2:ESTALE"):
            assert reader.refresh() == 1
        assert reader.get("aa") == record("aa")

    def test_transient_load_fault_is_retried(self, tmp_path):
        path = tmp_path / "s.jsonl"
        ResultStore(path).put(record("aa"))
        with inject("store.read=first:2:EIO"):
            assert ResultStore(path).get("aa") == record("aa")

    def test_stale_compact_tmp_is_cleaned_on_load(self, tmp_path):
        """Regression: a compactor killed between its tmp write and the
        os.replace used to leave the orphan sibling forever."""
        path = tmp_path / "s.jsonl"
        ResultStore(path).put(record("aa"))
        orphan = tmp_path / "s.jsonl.compact-12345"
        orphan.write_bytes(b'{"fingerprint": "stale"}\n')
        store = ResultStore(path)
        assert store.stale_tmp_removed == 1
        assert not orphan.exists()
        assert store.get("aa") == record("aa")

    def test_compact_crash_between_write_and_replace(self, tmp_path):
        """An injected crash in the tmp→replace window must not leak the
        temp sibling, and the original store must survive untouched."""
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.put(record("aa"))
        store.put(record("aa", round=2))
        with inject("store.compact=first:99:EROFS"):
            with pytest.raises(OSError):
                store.compact()
        assert list(tmp_path.glob("s.jsonl.compact-*")) == []
        reloaded = ResultStore(path)
        assert reloaded.get("aa") == record("aa", round=2)

    def test_compact_transient_fault_is_retried(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.put(record("aa"))
        store.put(record("aa", round=2))
        with inject("store.compact=first:2:EINTR"):
            kept, dropped = store.compact()
        assert (kept, dropped) == (1, 1)
        assert path.read_text().count("\n") == 1
        assert list(tmp_path.glob("s.jsonl.compact-*")) == []


# --------------------------------------------------------------------------- #
# WorkQueue leases + heartbeat
# --------------------------------------------------------------------------- #


FP = "f" * 40


class TestLeaseFaults:
    def test_transient_claim_fault_is_retried(self, tmp_path, fast_policy):
        queue = WorkQueue(tmp_path, worker_id="w1", clock=lambda: 10.0)
        with inject("lease.claim=first:2:ESTALE"):
            assert queue.claim(FP) is True
        assert fast_policy.stats.retries == 2
        assert queue.held() == {FP}
        info = queue.read_lease(FP)
        assert info is not None and info.worker == "w1"

    def test_lost_claim_race_is_an_answer_not_a_fault(self, tmp_path, fast_policy):
        first = WorkQueue(tmp_path, worker_id="w1", clock=lambda: 10.0)
        assert first.claim(FP)
        second = WorkQueue(tmp_path, worker_id="w2", clock=lambda: 10.0)
        with inject("lease.claim=first:99:ESTALE") as injector:
            assert second.claim(FP) is False
        # FileExistsError short-circuits before the injector ever fires.
        assert injector.snapshot()["lease.claim"]["fired"] >= 1
        assert fast_policy.stats.exhausted == 0 or second.held() == set()

    def test_fatal_claim_fault_reads_as_lost_race(self, tmp_path):
        queue = WorkQueue(tmp_path, worker_id="w1", clock=lambda: 10.0)
        with inject("lease.claim=first:1:EACCES"):
            assert queue.claim(FP) is False
        assert queue.held() == set()

    def test_transient_renew_fault_is_retried(self, tmp_path):
        clock = {"now": 10.0}
        queue = WorkQueue(tmp_path, worker_id="w1", clock=lambda: clock["now"])
        queue.claim(FP)
        clock["now"] = 20.0
        with inject("lease.renew=first:2:ESTALE"):
            assert queue.renew(FP) is True
        assert queue.renew_errors == 0
        assert queue.read_lease(FP).renewed_at == 20.0

    def test_persistent_renew_fault_keeps_the_lease(self, tmp_path):
        queue = WorkQueue(tmp_path, worker_id="w1", clock=lambda: 10.0)
        queue.claim(FP)
        with inject("lease.renew=first:99:ESTALE"):
            assert queue.renew(FP) is True  # still believed held
        assert queue.renew_errors == 1
        assert queue.held() == {FP}
        # No temp litter in the lease directory.
        assert list(queue.lease_dir.glob("*.tmp")) == []

    def test_release_does_not_unlink_a_reclaimed_peers_lease(self, tmp_path):
        """Regression: release used to unconditionally unlink the lease
        path, stripping the *new* owner after a reclaim + re-claim."""
        clock = {"now": 10.0}
        slow = WorkQueue(tmp_path, worker_id="slow", ttl=1.0,
                         clock=lambda: clock["now"])
        slow.claim(FP)
        clock["now"] = 100.0  # slow sleeps past its TTL
        peer = WorkQueue(tmp_path, worker_id="peer", ttl=1.0,
                         clock=lambda: clock["now"])
        assert peer.reclaim_stale([FP]) == [FP]
        assert peer.claim(FP)
        slow.release(FP, event="complete")
        info = slow.read_lease(FP)
        assert info is not None and info.worker == "peer"  # untouched
        events = [(e["event"], e["worker"]) for e in read_audit(tmp_path)]
        assert ("lost", "slow") in events
        assert ("complete", "slow") not in events

    def test_persistent_release_fault_is_audited_not_raised(self, tmp_path):
        queue = WorkQueue(tmp_path, worker_id="w1", clock=lambda: 10.0)
        queue.claim(FP)
        with inject("lease.release=first:99:ESTALE"):
            queue.release(FP, event="complete")
        assert queue.release_errors == 1
        assert queue.lease_path(FP).exists()  # left for TTL reclaim
        complete = [e for e in read_audit(tmp_path) if e["event"] == "complete"]
        assert complete and complete[0]["unlink_failed"] is True

    def test_torn_audit_append_is_healed(self, tmp_path):
        queue = WorkQueue(tmp_path, worker_id="w1", clock=lambda: 10.0)
        with inject("lease.audit=torn:1"):
            queue.audit("claim", FP)
        queue.audit("release", FP)
        events = [e["event"] for e in read_audit(tmp_path)]
        assert events == ["claim", "release"]

    def test_short_audit_write_is_retried(self, tmp_path, monkeypatch):
        """Regression: a short ``os.write`` (part of the line, no error)
        went unnoticed, so the next event merged into the fragment and only
        that one survived."""
        queue = WorkQueue(tmp_path, worker_id="w1", clock=lambda: 10.0)
        real_write = os.write
        calls = []

        def short_first_write(fd, data):
            calls.append(fd)
            if len(calls) == 1:
                data = data[: len(data) // 2]
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", short_first_write)
        queue.audit("claim", FP)
        queue.audit("release", FP)
        events = [e["event"] for e in read_audit(tmp_path)]
        assert events == ["claim", "release"]

    def test_peer_event_after_a_torn_fragment_is_recovered(self, tmp_path):
        x = json_line({"event": "execute", "fingerprint": "x" * 64, "worker": "w1"})
        y = json_line({"event": "execute", "fingerprint": "y" * 64, "worker": "w2"})
        (tmp_path / "audit.jsonl").write_bytes(x[: len(x) // 2] + y + b"\n" + x)
        events = [(e["event"], e["fingerprint"]) for e in read_audit(tmp_path)]
        assert events == [("execute", "y" * 64), ("execute", "x" * 64)]

    def test_persistent_audit_fault_never_wedges_the_protocol(self, tmp_path):
        queue = WorkQueue(tmp_path, worker_id="w1", clock=lambda: 10.0)
        with inject("lease.audit=first:99:ESTALE"):
            assert queue.claim(FP) is True  # claim survives a dead audit log
        assert queue.held() == {FP}

    def test_heartbeat_thread_survives_renewal_exceptions(self, tmp_path):
        queue = WorkQueue(tmp_path, worker_id="w1", ttl=40.0, clock=lambda: 10.0)

        original = queue.renew_held
        calls = {"n": 0}

        def explosive():
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("surprise")
            return original()

        queue.renew_held = explosive  # type: ignore[method-assign]
        beat = HeartbeatThread(queue, interval=0.005)
        with beat:
            deadline = threading.Event()
            for _ in range(200):
                if beat.renewals >= 2:
                    break
                deadline.wait(0.01)
        assert beat.errors >= 1
        assert beat.renewals >= 2  # it kept beating after the exception


# --------------------------------------------------------------------------- #
# ShardedDataset quarantine
# --------------------------------------------------------------------------- #


@pytest.fixture()
def shard_dir(tmp_path):
    writer = ShardWriter(tmp_path / "shards", ["a", "b"], shard_rows=2)
    for i in range(6):
        writer.append_row([f"a{i}", f"b{i}"])
    writer.close()
    return tmp_path / "shards"


class TestShardReadFaults:
    def test_transient_read_fault_is_retried(self, shard_dir, fast_policy):
        ds = ShardedDataset(shard_dir)
        with inject("shard.read=first:2:EIO"):
            assert ds.column_chunk("a", 0, 6) == [f"a{i}" for i in range(6)]
        assert fast_policy.stats.retries == 2
        assert ds.quarantined == {}

    def test_persistent_fault_quarantines_the_shard(self, shard_dir):
        ds = ShardedDataset(shard_dir)
        with inject("shard.read=first:99:EIO") as injector:
            with pytest.raises(ShardQuarantinedError) as excinfo:
                ds.column_chunk("a", 0, 2)
            assert excinfo.value.shard == 0
            assert excinfo.value.errno == errno.EIO
            assert "c0.npy" in str(excinfo.value.path)
            fired_after_seal = injector.snapshot()["shard.read"]["invocations"]
            # Later reads fail fast: same structured error, no retry storm.
            with pytest.raises(ShardQuarantinedError):
                ds.column_chunk("a", 0, 2)
            assert (
                injector.snapshot()["shard.read"]["invocations"]
                == fired_after_seal
            )
        assert set(ds.quarantined) == {0}

    def test_clear_quarantine_readmits_the_shard(self, shard_dir):
        ds = ShardedDataset(shard_dir)
        with inject("shard.read=first:99:EIO"):
            with pytest.raises(ShardQuarantinedError):
                ds.column_chunk("a", 0, 2)
        assert ds.clear_quarantine() == [0]
        # The fault cleared (injector gone): reads work again.
        assert ds.column_chunk("a", 0, 2) == ["a0", "a1"]
        assert ds.quarantined == {}

    def test_other_shards_keep_serving(self, shard_dir):
        ds = ShardedDataset(shard_dir)
        ds.column_chunk("a", 2, 4)  # shard 1 cached before the fault window
        with inject("shard.read=first:99:EIO"):
            with pytest.raises(ShardQuarantinedError):
                ds.column_chunk("a", 0, 2)
            assert ds.column_chunk("a", 2, 4) == ["a2", "a3"]

    def test_missing_shard_file_is_not_quarantined(self, shard_dir):
        ds = ShardedDataset(shard_dir)
        (shard_dir / "shards" / "shard-00000" / "c0.npy").unlink()
        with pytest.raises(FileNotFoundError):
            ds.column_chunk("a", 0, 2)
        assert ds.quarantined == {}
