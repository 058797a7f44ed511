"""Resumable on-disk result store for sweep runs.

One JSONL file, one scenario record per line, keyed by the scenario's
content fingerprint.  Appending is the only write operation, and every
append is a **single ``O_APPEND`` ``write()``** of one whole line — the
kernel picks the offset atomically per write, so any number of concurrent
appenders (worker processes on one host, or cooperative sweep workers on
many hosts sharing a filesystem) interleave whole records, never sheared
ones.  A sweep killed mid-run loses at most the in-flight scenarios; on
restart, :meth:`ResultStore.get` serves every completed scenario from disk
and only the missing fingerprints re-execute.

For cooperative sweeps the store doubles as the *completion ledger*:
:meth:`refresh` tails the file for records appended by other workers since
the last scan (consuming only newline-terminated lines, so a record
another process is mid-append is never mis-parsed), and :meth:`missing`
is the completion scan a claim loop runs before claiming work.

Robustness rules:

- a truncated or otherwise unparseable line (the tail of a killed run) is
  skipped on load rather than poisoning the whole store; an unterminated
  tail found at load time is *healed* (newline-terminated) so future
  appends start on a fresh line;
- duplicate fingerprints are legal — the *latest* record wins, so a store
  can simply be appended to across resumed runs and by concurrent
  workers; :meth:`compact` rewrites the log keeping only the winners when
  a long-lived store's history outgrows its content;
- transient disk faults (``EAGAIN``, ``ESTALE``, ...) on append, scan and
  compact are retried through a :class:`~repro.faults.retry.RetryPolicy`
  at the ``store.append`` / ``store.read`` / ``store.compact`` fault
  points.  Appends go through :func:`~repro.faults.inject.append_jsonl`,
  which heals a *torn* or short append before the retry; readers skip the
  fragment, or recover a concurrent appender's record that landed on its
  line (:func:`~repro.faults.inject.parse_jsonl_line`);
- stale ``*.compact-<pid>`` temp siblings (a compactor killed between the
  temp write and the ``os.replace``) are removed at load time.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from repro.faults.inject import append_jsonl, parse_jsonl_line, trip
from repro.faults.retry import get_default_policy


class ResultStore:
    """Append-only JSONL store of scenario records, keyed by fingerprint."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._records: dict[str, dict] = {}
        self._offset = 0  # bytes of the file consumed so far
        self._lines_read = 0  # complete lines consumed (parseable or not)
        self.skipped_lines = 0
        self.stale_tmp_removed = self._clean_stale_tmp()
        if self.path.exists():
            self._load()

    def _clean_stale_tmp(self) -> int:
        """Remove orphaned compaction temp files; returns the count.

        A compactor killed between its temp write and the ``os.replace``
        leaves a ``<name>.compact-<pid>`` sibling behind.  Any such file
        found at load time is stale by construction (this store has not
        compacted yet, and compactions are only run on quiescent stores),
        so it is garbage — delete it rather than letting orphans
        accumulate next to long-lived stores.
        """
        parent = self.path.parent
        if not parent.is_dir():
            return 0
        removed = 0
        for tmp in parent.glob(f"{self.path.name}.compact-*"):
            try:
                tmp.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    # -- reading ----------------------------------------------------------

    def _consume_line(self, line: bytes) -> None:
        self._lines_read += 1
        text = line.strip()
        if not text:
            return
        record, whole = parse_jsonl_line(text)
        fingerprint = (record or {}).get("fingerprint")
        if not whole or not isinstance(fingerprint, str):
            self.skipped_lines += 1
        if isinstance(fingerprint, str):
            self._records[fingerprint] = record

    def _load(self) -> None:
        """Initial scan: consume every complete line, then heal the tail.

        A non-empty unterminated tail is the signature of a run killed
        mid-append.  It is counted as one skipped line (it cannot hold a
        whole record) and a ``\\n`` is appended so that the *next* append —
        from this or any other process — starts on a fresh line instead of
        merging into garbage.
        """
        def scan() -> bytes:
            trip("store.read")
            tail = b""
            with self.path.open("rb") as f:
                f.seek(self._offset)  # no-op first time; makes retries resume
                while True:
                    line = f.readline()
                    if not line:
                        break
                    if not line.endswith(b"\n"):
                        tail = line
                        break
                    self._offset += len(line)
                    self._consume_line(line)
            return tail

        tail = get_default_policy().call(scan, point="store.read", op="read")
        if tail:
            self._offset += len(tail)
            self._lines_read += 1
            self.skipped_lines += 1
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
            try:
                os.write(fd, b"\n")
            finally:
                os.close(fd)
            self._offset += 1

    def refresh(self) -> int:
        """Consume records appended since the last scan; returns the count.

        Only newline-terminated lines are consumed: a line that another
        worker is mid-append stays unread until its terminator lands, so a
        live cooperative sweep can be re-scanned at any moment without
        ever mis-parsing an in-flight record.  Cheap when nothing changed
        (one ``seek`` past the consumed prefix).
        """
        if not self.path.exists():
            return 0
        consumed = 0

        def scan() -> None:
            # The offset only advances past fully-consumed lines, so a
            # fault mid-scan retries from exactly where it stopped.
            nonlocal consumed
            trip("store.read")
            with self.path.open("rb") as f:
                f.seek(self._offset)
                while True:
                    line = f.readline()
                    if not line or not line.endswith(b"\n"):
                        break
                    self._offset += len(line)
                    self._consume_line(line)
                    consumed += 1

        get_default_policy().call(scan, point="store.read", op="read")
        return consumed

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._records

    def __iter__(self) -> Iterator[dict]:
        return iter(self._records.values())

    @property
    def fingerprints(self) -> set[str]:
        return set(self._records)

    def get(self, fingerprint: str) -> dict | None:
        """The stored record for ``fingerprint``, or None."""
        return self._records.get(fingerprint)

    def missing(self, fingerprints: Iterable[str]) -> list[str]:
        """The given fingerprints not yet completed, in the given order.

        The completion scan of a cooperative claim loop: run before
        claiming so finished work is never re-claimed, even across worker
        restarts (the store, not any process, is the source of truth).
        """
        return [fp for fp in fingerprints if fp not in self._records]

    # -- writing ----------------------------------------------------------

    def put(self, record: Mapping[str, object]) -> None:
        """Append ``record`` (must carry a ``"fingerprint"`` key).

        The whole line goes down in one ``O_APPEND`` ``write()``: records
        from concurrent appenders interleave but never shear.  A transient
        fault (including a torn/short write) is healed and retried; see
        the module docstring.
        """
        fingerprint = record.get("fingerprint")
        if not isinstance(fingerprint, str) or not fingerprint:
            raise ValueError("record needs a non-empty string 'fingerprint'")
        record = dict(record)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        append_jsonl(self.path, record, "store.append")
        self._records[fingerprint] = record

    def compact(self) -> tuple[int, int]:
        """Rewrite the log keeping only latest-wins records.

        Returns ``(kept_records, dropped_lines)``.  The rewrite is atomic
        (temp sibling + ``os.replace``), so concurrent *readers* always see
        a complete file.  Concurrent **appenders** are another matter: a
        record appended between this store's snapshot and the replace is
        lost, so compact only a quiescent store — cooperative sweeps do it
        after the matrix has fully drained (``repro sweep --compact``).
        """
        self.refresh()
        dropped = self._lines_read - len(self._records)
        payload = b"".join(
            (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
            for record in self._records.values()
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(f"{self.path.name}.compact-{os.getpid()}")

        def rewrite() -> None:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            try:
                os.write(fd, payload)
                os.fsync(fd)
            finally:
                os.close(fd)
            # The window a killed compactor orphans its temp file in.
            trip("store.compact")
            os.replace(tmp, self.path)

        try:
            get_default_policy().call(rewrite, point="store.compact", op="write")
        except BaseException:
            # Don't leave the temp sibling behind on a persistent fault
            # (a crash can't run this; _clean_stale_tmp covers that case).
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._offset = len(payload)
        self._lines_read = len(self._records)
        self.skipped_lines = 0
        return len(self._records), max(dropped, 0)
