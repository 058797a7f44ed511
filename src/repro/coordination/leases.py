"""Lease files: race-free scenario claiming over a shared directory.

The cooperative-sweep protocol has no coordinator process — the
*filesystem* is the coordinator.  Every scenario fingerprint maps to one
lease path ``leases/<fingerprint>.lease``; a worker claims the scenario by
creating that file with ``O_CREAT | O_EXCL``, which is atomic on POSIX
filesystems and on NFS-class network filesystems (v3 and later implement
exclusive create server-side), so exactly one of N racing workers wins.

A lease is a *liveness* signal, not a lock: the claiming worker renews a
heartbeat timestamp inside the file from a background thread
(:class:`~repro.coordination.heartbeat.HeartbeatThread`), and any other
worker may **reclaim** a lease whose heartbeat is older than the TTL — a
``kill -9``'d worker's scenarios are re-run by survivors.  Reclaiming only
unlinks the stale file; re-claiming is the ordinary :meth:`WorkQueue.claim`
race afterwards, so two simultaneous reclaimers still resolve to one owner.

The protocol is an *efficiency* mechanism, not a correctness one: scenario
results are pure functions of their spec and the result store is
latest-wins, so the rare double-execution (a worker paused past its TTL
revives after being reclaimed) wastes CPU but can never corrupt results.

Every state transition is appended to ``audit.jsonl`` (single-``write()``
``O_APPEND`` records, so concurrent workers cannot shear a line), which is
what the CI smoke and :mod:`benchmarks.bench_distributed_sweep` replay to
prove no scenario executed twice.

Transient filesystem faults (``ESTALE`` from an NFS export, ``EAGAIN``,
``EINTR``) are retried through a :class:`~repro.faults.retry.RetryPolicy`
at the ``lease.claim`` / ``lease.renew`` / ``lease.release`` /
``lease.audit`` fault points.  The fault *boundaries* respect the
protocol: a ``FileExistsError`` on claim is an answer (lost the race),
never a fault; a persistently unrenewable lease is still believed held
(the TTL arbitrates); a persistently unreleasable lease is audited and
left for reclaim.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.faults.inject import append_jsonl, parse_jsonl_line, trip
from repro.faults.retry import get_default_policy

#: Lease payload schema identifier.
LEASE_SCHEMA = "repro.lease/v1"

#: Suffix of lease files under ``<coordination dir>/leases/``.
LEASE_SUFFIX = ".lease"

#: Default heartbeat TTL (seconds): a lease silent for longer is stale.
DEFAULT_TTL = 60.0


class CoordinationError(RuntimeError):
    """A coordination invariant was violated (bad TTL, missing store, ...)."""


def default_worker_id() -> str:
    """``<hostname>-<pid>``: unique across the hosts sharing a store."""
    return f"{socket.gethostname()}-{os.getpid()}"


def coordination_dir(store_path: str | Path) -> Path:
    """The conventional coordination directory for a result store.

    Derived from the store path (``<store>.coord/``) so every worker and
    ``repro report`` agree on it without extra flags.
    """
    return Path(f"{store_path}.coord")


@dataclass(frozen=True)
class LeaseInfo:
    """One lease file, decoded: who holds which scenario since when."""

    fingerprint: str
    worker: str
    claimed_at: float
    renewed_at: float
    path: Path

    def age(self, now: float) -> float:
        """Seconds since the scenario was claimed."""
        return max(0.0, now - self.claimed_at)

    def heartbeat_age(self, now: float) -> float:
        """Seconds since the last heartbeat renewal."""
        return max(0.0, now - self.renewed_at)

    def is_stale(self, ttl: float, now: float) -> bool:
        """True when the holder missed heartbeats for longer than ``ttl``."""
        return self.heartbeat_age(now) > ttl


def _decode_lease(path: Path) -> LeaseInfo | None:
    """Decode one lease file; ``None`` if it vanished (released/reclaimed).

    An unparseable payload is *not* an error: a racing claimer has created
    the file but not yet written it.  The file's mtime stands in for both
    timestamps then — freshly created, so never spuriously stale.
    """
    try:
        raw = path.read_bytes()
        mtime = path.stat().st_mtime
    except (FileNotFoundError, OSError):
        return None
    fingerprint = path.name.removesuffix(LEASE_SUFFIX)
    try:
        payload = json.loads(raw.decode("utf-8"))
        return LeaseInfo(
            fingerprint=str(payload.get("fingerprint") or fingerprint),
            worker=str(payload["worker"]),
            claimed_at=float(payload["claimed_at"]),
            renewed_at=float(payload["renewed_at"]),
            path=path,
        )
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError, ValueError):
        return LeaseInfo(
            fingerprint=fingerprint,
            worker="(claiming)",
            claimed_at=mtime,
            renewed_at=mtime,
            path=path,
        )


def iter_leases(
    directory: str | Path, fingerprints: Iterable[str] | None = None
) -> Iterator[LeaseInfo]:
    """Decode the live leases under a coordination directory.

    Read-only (safe for ``repro report`` against a sweep in flight): no
    directories are created and vanished files are skipped.  With
    ``fingerprints`` given, only those leases are probed — O(interesting)
    instead of a full directory scan.
    """
    lease_dir = Path(directory) / "leases"
    if fingerprints is not None:
        paths: Iterable[Path] = (
            lease_dir / f"{fp}{LEASE_SUFFIX}" for fp in fingerprints
        )
    elif lease_dir.is_dir():
        paths = sorted(lease_dir.glob(f"*{LEASE_SUFFIX}"))
    else:
        return
    for path in paths:
        info = _decode_lease(path)
        if info is not None:
            yield info


def read_audit(directory: str | Path) -> list[dict]:
    """Decode the audit log (complete lines only; partial tails skipped,
    and an event sharing a line with a torn fragment recovered)."""
    path = Path(directory) / "audit.jsonl"
    events: list[dict] = []
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return events
    for line in raw.split(b"\n"):
        if not line.strip():
            continue
        event, _ = parse_jsonl_line(line)
        if event is not None:
            events.append(event)
    return events


class WorkQueue:
    """Claim/renew/release/reclaim scenario leases in a shared directory.

    One instance per worker process.  Thread-safe: the heartbeat thread
    renews held leases while the drain loop claims and releases them.

    ``clock`` is injectable so staleness/TTL logic is testable without
    real sleeps; production uses ``time.time`` (wall-clock, comparable
    across hosts — monotonic clocks are per-host and useless in lease
    files read by other machines).
    """

    def __init__(
        self,
        directory: str | Path,
        worker_id: str | None = None,
        ttl: float = DEFAULT_TTL,
        clock: Callable[[], float] = time.time,
    ):
        if ttl <= 0:
            raise CoordinationError(f"lease TTL must be positive, got {ttl!r}")
        self.directory = Path(directory)
        self.lease_dir = self.directory / "leases"
        self.audit_path = self.directory / "audit.jsonl"
        self.worker_id = worker_id or default_worker_id()
        self.ttl = float(ttl)
        self._clock = clock
        self._lock = threading.Lock()
        self._held: dict[str, float] = {}  # fingerprint -> claimed_at
        self.renew_errors = 0  # persistent renewal faults (lease still held)
        self.release_errors = 0  # leases we could not unlink (left to reclaim)
        self.lease_dir.mkdir(parents=True, exist_ok=True)

    # -- paths and payloads ----------------------------------------------

    def lease_path(self, fingerprint: str) -> Path:
        return self.lease_dir / f"{fingerprint}{LEASE_SUFFIX}"

    def _payload(self, fingerprint: str, claimed_at: float, renewed_at: float) -> bytes:
        return json.dumps(
            {
                "schema": LEASE_SCHEMA,
                "fingerprint": fingerprint,
                "worker": self.worker_id,
                "claimed_at": claimed_at,
                "renewed_at": renewed_at,
            },
            sort_keys=True,
        ).encode("utf-8")

    # -- the lease lifecycle ---------------------------------------------

    def claim(self, fingerprint: str) -> bool:
        """Try to claim a scenario; True iff this worker won the race.

        The ``O_CREAT | O_EXCL`` open *is* the claim — the payload write
        that follows is informational (readers of a not-yet-written lease
        fall back to the file's mtime, see :func:`_decode_lease`).

        Transient faults on the open are retried; ``FileExistsError`` is
        *not* a fault (the taxonomy classes it UNKNOWN, never retried) —
        it is the answer "another worker won", including the edge where
        our own earlier attempt created the file before faulting, which
        the TTL reclaim eventually resolves.
        """
        path = self.lease_path(fingerprint)

        def create() -> int:
            trip("lease.claim")
            return os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)

        try:
            fd = get_default_policy().call(create, point="lease.claim", op="write")
        except FileExistsError:
            return False
        except OSError:
            # A persistent fault: indistinguishable from losing the race.
            return False
        now = self._clock()
        try:
            os.write(fd, self._payload(fingerprint, now, now))
        except OSError:
            pass  # readers fall back to the file's mtime
        finally:
            os.close(fd)
        with self._lock:
            self._held[fingerprint] = now
        self.audit("claim", fingerprint)
        return True

    def renew(self, fingerprint: str) -> bool:
        """Refresh the heartbeat on a held lease; False if it was lost.

        Ownership is verified first: if the on-disk lease now names another
        worker, this worker was reclaimed (it slept past the TTL) and must
        not clobber the new owner — the scenario is theirs now.  The rename
        is atomic, so readers always see a whole payload.
        """
        with self._lock:
            claimed_at = self._held.get(fingerprint)
        if claimed_at is None:
            return False
        current = _decode_lease(self.lease_path(fingerprint))
        if current is None or current.worker != self.worker_id:
            with self._lock:
                self._held.pop(fingerprint, None)
            self.audit("lost", fingerprint, new_worker=None if current is None else current.worker)
            return False
        tmp = self.lease_dir / f".renew-{self.worker_id}-{fingerprint[:16]}.tmp"

        def publish() -> None:
            trip("lease.renew")
            tmp.write_bytes(self._payload(fingerprint, claimed_at, self._clock()))
            os.replace(tmp, self.lease_path(fingerprint))

        try:
            get_default_policy().call(publish, point="lease.renew", op="write")
        except OSError:
            # A persistently unrefreshable heartbeat is not a lost lease —
            # the on-disk file still names this worker.  Count it and keep
            # the claim; if the fault outlasts the TTL, reclaim arbitrates.
            self.renew_errors += 1
            try:
                os.unlink(tmp)
            except OSError:
                pass
        return True

    def renew_held(self) -> list[str]:
        """Renew every held lease; returns the fingerprints that were lost."""
        with self._lock:
            held = list(self._held)
        return [fp for fp in held if not self.renew(fp)]

    def release(self, fingerprint: str, event: str = "release") -> None:
        """Drop a held lease (scenario finished, skipped, or failed).

        Ownership is re-verified before the unlink: if this worker slept
        past its TTL, was reclaimed, and the scenario was re-claimed by a
        peer, the on-disk lease is *theirs* — unlinking it would strip the
        live owner's claim.  A lease that cannot be unlinked through the
        retry budget is audited and left behind; its heartbeat stops with
        this release, so peers reclaim it after the TTL.
        """
        with self._lock:
            self._held.pop(fingerprint, None)
        path = self.lease_path(fingerprint)
        current = _decode_lease(path)
        if current is not None and current.worker not in (self.worker_id, "(claiming)"):
            self.audit("lost", fingerprint, new_worker=current.worker)
            return

        def unlink() -> None:
            trip("lease.release")
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass

        try:
            get_default_policy().call(unlink, point="lease.release", op="write")
        except OSError:
            self.release_errors += 1
            self.audit(event, fingerprint, unlink_failed=True)
            return
        self.audit(event, fingerprint)

    def held(self) -> set[str]:
        """Fingerprints this worker currently believes it holds."""
        with self._lock:
            return set(self._held)

    # -- other workers' leases -------------------------------------------

    def read_lease(self, fingerprint: str) -> LeaseInfo | None:
        return _decode_lease(self.lease_path(fingerprint))

    def active_leases(
        self, fingerprints: Iterable[str] | None = None
    ) -> list[LeaseInfo]:
        return list(iter_leases(self.directory, fingerprints))

    def reclaim_stale(
        self, fingerprints: Iterable[str] | None = None
    ) -> list[str]:
        """Unlink other workers' leases whose heartbeat exceeded the TTL.

        Returns the reclaimed fingerprints.  The caller does *not* own
        them afterwards — it (and everyone else) competes for them through
        the ordinary :meth:`claim` race, which keeps the two-simultaneous-
        reclaimers case single-owner.
        """
        now = self._clock()
        reclaimed: list[str] = []
        for info in self.active_leases(fingerprints):
            if info.worker == self.worker_id:
                continue  # our own leases are the heartbeat thread's job
            if not info.is_stale(self.ttl, now):
                continue
            try:
                os.unlink(info.path)
            except FileNotFoundError:
                continue  # another reclaimer got there first
            except OSError:
                continue  # transient trouble: the next sweep retries
            self.audit(
                "reclaim",
                info.fingerprint,
                stale_worker=info.worker,
                heartbeat_age=round(info.heartbeat_age(now), 3),
            )
            reclaimed.append(info.fingerprint)
        return reclaimed

    # -- audit trail ------------------------------------------------------

    def audit(self, event: str, fingerprint: str, **extra: object) -> None:
        """Append one event to the shared audit log (atomic per record).

        Best-effort under persistent faults: the audit trail is evidence,
        not a lock — losing a record must not wedge the lease protocol.
        """
        try:
            append_jsonl(
                self.audit_path,
                {
                    "time": self._clock(),
                    "worker": self.worker_id,
                    "event": event,
                    "fingerprint": fingerprint,
                    **extra,
                },
                point="lease.audit",
            )
        except OSError:
            pass
