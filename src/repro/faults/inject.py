"""Deterministic fault injector: named points, seeded schedules.

Every hardened I/O call site in the repo passes through a *named fault
point* (:data:`FAULT_POINTS`).  In production the hook is a no-op global
read; under test an installed :class:`FaultInjector` turns scheduled
invocations of a point into real ``OSError``\\ s — deterministically, so a
chaos run is exactly reproducible from its spec string.

Schedules (``<point>=<mode>`` clauses, ``;``-separated)::

    store.append=first:2:EAGAIN      # invocations 1..2 raise EAGAIN
    lease.renew=every:3:ESTALE       # every 3rd invocation raises ESTALE
    shard.read=rate:0.2:EIO          # seeded ~20% of invocations raise EIO
    artifacts.object_write=torn:1    # 1st write lands half its bytes, EINTR
    store.append=first:1:ENOSPC      # fatal-fault schedules work too

Install in-process with the :func:`inject` context manager, or across a
CLI subprocess fleet via the ``REPRO_FAULTS`` environment variable (read
lazily, once per process, by :func:`active_injector` — worker processes
spawned with the variable set inject without any code cooperation).

Torn/short writes need the call site's cooperation (only it holds the fd
and the payload), which is what :func:`checked_write` provides: a single
``os.write`` in the clean path, and under a ``torn`` schedule a *partial*
write followed by a transient ``OSError`` — the injected version of a
signal landing mid-``write(2)``.  :func:`append_jsonl` is the one JSONL
appender built on it (result store, lease audit log, artifact manifest),
and :func:`parse_jsonl_line` is the readers' half: it recovers the whole
record a torn fragment got merged into.
"""

from __future__ import annotations

import errno as _errno
import hashlib
import json
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

from repro.faults.retry import get_default_policy

#: The named fault points threaded through the I/O plane.  The tuple is
#: documentation + validation, not a closed set — subsystems may add
#: points, and specs naming unknown points fail loudly.
FAULT_POINTS = (
    "artifacts.object_write",
    "artifacts.object_read",
    "artifacts.index_append",
    "store.append",
    "store.read",
    "store.compact",
    "lease.claim",
    "lease.renew",
    "lease.release",
    "lease.audit",
    "shard.read",
    "serve.load",
)

_MODES = ("first", "every", "rate", "torn")

#: Default errno of a torn write: the signal-interrupted-write classic.
_TORN_DEFAULT_ERRNO = "EINTR"


class FaultSpecError(ValueError):
    """A fault spec string is malformed (unknown point, mode, errno, ...)."""


def _errno_value(name: str) -> int:
    value = getattr(_errno, name.upper(), None)
    if not isinstance(value, int):
        raise FaultSpecError(f"unknown errno name {name!r} (e.g. EAGAIN, ENOSPC)")
    return value


@dataclass(frozen=True)
class FaultRule:
    """One point's schedule: when to fire, and with which errno."""

    point: str
    mode: str  # first | every | rate | torn
    arg: float  # N for first/torn, K for every, P for rate
    errno_name: str

    @property
    def errno_value(self) -> int:
        return _errno_value(self.errno_name)

    @property
    def torn(self) -> bool:
        return self.mode == "torn"

    def fires(self, count: int, seed: int) -> bool:
        """Whether invocation number ``count`` (1-based) is scheduled."""
        if self.mode in ("first", "torn"):
            return count <= int(self.arg)
        if self.mode == "every":
            return int(self.arg) > 0 and count % int(self.arg) == 0
        # rate: seeded, deterministic per (seed, point, count)
        digest = hashlib.sha256(
            f"{seed}:{self.point}:{count}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2**64 < self.arg

    def spec(self) -> str:
        arg = f"{self.arg:g}" if self.mode == "rate" else str(int(self.arg))
        return f"{self.point}={self.mode}:{arg}:{self.errno_name}"


def _parse_clause(clause: str) -> FaultRule:
    point, sep, schedule = clause.partition("=")
    point = point.strip()
    if not sep or not point or not schedule.strip():
        raise FaultSpecError(
            f"bad fault clause {clause!r}; expected <point>=<mode>:<arg>[:<ERRNO>]"
        )
    if point not in FAULT_POINTS:
        raise FaultSpecError(
            f"unknown fault point {point!r}; known: {', '.join(FAULT_POINTS)}"
        )
    parts = [p.strip() for p in schedule.strip().split(":")]
    mode = parts[0]
    if mode not in _MODES:
        raise FaultSpecError(
            f"{point}: unknown mode {mode!r}; known: {', '.join(_MODES)}"
        )
    if len(parts) < 2:
        raise FaultSpecError(f"{point}: mode {mode!r} needs an argument")
    try:
        arg = float(parts[1])
    except ValueError:
        raise FaultSpecError(
            f"{point}: bad schedule argument {parts[1]!r}"
        ) from None
    if mode == "rate":
        if not 0 < arg <= 1:
            raise FaultSpecError(f"{point}: rate must be in (0, 1], got {arg:g}")
    elif arg < 1 or arg != int(arg):
        raise FaultSpecError(
            f"{point}: {mode} needs a positive integer, got {parts[1]!r}"
        )
    default = _TORN_DEFAULT_ERRNO if mode == "torn" else "EAGAIN"
    errno_name = (parts[2] if len(parts) > 2 else default).upper()
    _errno_value(errno_name)  # validate eagerly
    if len(parts) > 3:
        raise FaultSpecError(f"{point}: trailing schedule parts {parts[3:]!r}")
    return FaultRule(point=point, mode=mode, arg=arg, errno_name=errno_name)


def parse_spec(spec: str) -> list[FaultRule]:
    """Parse a ``REPRO_FAULTS``-style spec string into rules."""
    rules: list[FaultRule] = []
    for chunk in spec.replace(",", ";").split(";"):
        chunk = chunk.strip()
        if chunk:
            rules.append(_parse_clause(chunk))
    if not rules:
        raise FaultSpecError(f"empty fault spec {spec!r}")
    return rules


class FaultInjector:
    """Deterministic, thread-safe scheduler of faults at named points.

    One rule per point (a later rule for the same point replaces the
    earlier — last wins, like CLI flags).  Counters are per-injector and
    per-point; ``snapshot()`` is the chaos report's raw material.
    """

    def __init__(self, rules: "list[FaultRule] | str", seed: int = 0):
        if isinstance(rules, str):
            rules = parse_spec(rules)
        self.rules: dict[str, FaultRule] = {rule.point: rule for rule in rules}
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}
        self._fired: dict[str, int] = {}

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultInjector":
        return cls(parse_spec(spec), seed=seed)

    def spec(self) -> str:
        """The canonical spec string reproducing this injector."""
        return ";".join(rule.spec() for rule in self.rules.values())

    def __repr__(self) -> str:
        return f"FaultInjector({self.spec()!r}, seed={self.seed})"

    # -- scheduling -------------------------------------------------------- #

    def _tick(self, point: str) -> FaultRule | None:
        """Count one invocation of ``point``; the rule if it fires now."""
        rule = self.rules.get(point)
        if rule is None:
            return None
        with self._lock:
            self._counts[point] = count = self._counts.get(point, 0) + 1
            if not rule.fires(count, self.seed):
                return None
            self._fired[point] = self._fired.get(point, 0) + 1
        return rule

    def fire(self, point: str) -> None:
        """Raise the scheduled ``OSError`` if this invocation is faulted."""
        rule = self._tick(point)
        if rule is not None:
            raise OSError(
                rule.errno_value,
                f"injected fault at {point} "
                f"({rule.mode}:{rule.arg:g}:{rule.errno_name})",
            )

    def write(self, point: str, fd: int, data: bytes) -> int:
        """``os.write`` with scheduled full or torn/short failures.

        A non-torn scheduled fault raises before any byte lands; a torn
        one writes roughly half the payload first — the injected version
        of a signal interrupting ``write(2)`` mid-transfer.
        """
        rule = self._tick(point)
        if rule is None:
            return os.write(fd, data)
        message = (
            f"injected fault at {point} "
            f"({rule.mode}:{rule.arg:g}:{rule.errno_name})"
        )
        if rule.torn and data:
            os.write(fd, data[: max(1, len(data) // 2)])
            raise OSError(rule.errno_value, f"{message} after a short write")
        raise OSError(rule.errno_value, message)

    # -- accounting -------------------------------------------------------- #

    def snapshot(self) -> dict[str, dict[str, object]]:
        """Per-point ``{invocations, fired, rule}`` counters."""
        with self._lock:
            return {
                point: {
                    "invocations": self._counts.get(point, 0),
                    "fired": self._fired.get(point, 0),
                    "rule": rule.spec(),
                }
                for point, rule in self.rules.items()
            }


# --------------------------------------------------------------------------- #
# Installation: in-process context manager + REPRO_FAULTS environment spec
# --------------------------------------------------------------------------- #

ENV_VAR = "REPRO_FAULTS"
ENV_SEED_VAR = "REPRO_FAULTS_SEED"

_install_lock = threading.Lock()
_installed: FaultInjector | None = None
_env_checked = False


def install_from_env(environ: Mapping[str, str] | None = None) -> FaultInjector | None:
    """Install an injector from ``REPRO_FAULTS``, if set; returns it.

    Idempotent per process (the spec is read once); an explicit
    :func:`inject` context always takes precedence while active.
    """
    global _installed, _env_checked
    environ = os.environ if environ is None else environ
    with _install_lock:
        _env_checked = True
        spec = environ.get(ENV_VAR, "").strip()
        if not spec:
            return None
        if _installed is None:
            seed = int(environ.get(ENV_SEED_VAR, "0"))
            _installed = FaultInjector.from_spec(spec, seed=seed)
        return _installed


def active_injector() -> FaultInjector | None:
    """The currently installed injector, if any.

    Checks ``REPRO_FAULTS`` lazily on first call, so subprocesses (CLI
    sweep workers, process-pool workers) inject from the inherited
    environment without any explicit installation call.
    """
    global _env_checked
    if _installed is not None:
        return _installed
    if not _env_checked:
        return install_from_env()
    return None


@contextmanager
def inject(spec: "str | FaultInjector", seed: int = 0) -> Iterator[FaultInjector]:
    """Install a fault injector for the duration of a ``with`` block."""
    global _installed, _env_checked
    injector = (
        spec if isinstance(spec, FaultInjector) else FaultInjector.from_spec(spec, seed)
    )
    with _install_lock:
        previous, previous_checked = _installed, _env_checked
        _installed, _env_checked = injector, True
    try:
        yield injector
    finally:
        with _install_lock:
            _installed, _env_checked = previous, previous_checked


def trip(point: str) -> None:
    """The fault hook call sites embed: no-op unless an injector schedules
    a fault for this invocation of ``point``."""
    injector = active_injector()
    if injector is not None:
        injector.fire(point)


def checked_write(point: str, fd: int, data: bytes) -> int:
    """``os.write`` through the fault point ``point``.

    The clean path is exactly one ``os.write`` call — no wrapping, no
    copies.  Under an installed injector, scheduled invocations raise
    (optionally after a deliberate short write; see
    :meth:`FaultInjector.write`).
    """
    injector = active_injector()
    if injector is None:
        return os.write(fd, data)
    return injector.write(point, fd, data)


def append_jsonl(path: Path, payload: dict, point: str) -> None:
    """Append ``payload`` to ``path`` as one JSON line in a single
    ``O_APPEND`` ``write()``.

    ``O_APPEND`` makes the kernel pick the offset atomically per write, so
    concurrent appenders (processes, or hosts sharing a filesystem)
    interleave whole lines, never sheared ones.  Transient faults at
    ``point`` retry through the ambient default policy; a short write
    counts as a transient ``EAGAIN``.  Before each retry the
    possibly torn fragment is newline-terminated so the reissued line
    starts fresh; readers skip the fragment, or recover a peer's record
    that landed on its line (:func:`parse_jsonl_line`).
    """
    line = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")

    def append() -> None:
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            written = checked_write(point, fd, line)
        finally:
            os.close(fd)
        if written != len(line):
            raise OSError(
                _errno.EAGAIN, f"short write to {path}: {written}/{len(line)} bytes"
            )

    def heal(_exc: BaseException, _attempt: int) -> None:
        # An unnecessary lone "\n" is just a blank line, which readers skip.
        try:
            fd = os.open(path, os.O_WRONLY | os.O_APPEND)
        except OSError:
            return
        try:
            os.write(fd, b"\n")
        finally:
            os.close(fd)

    get_default_policy().call(append, point=point, op="write", on_retry=heal)


def parse_jsonl_line(line: bytes) -> tuple[dict | None, bool]:
    """Decode one JSONL line to an object: ``(obj, whole)``.

    A torn append leaves a fragment that the writer newline-terminates
    before retrying, but another worker's ``O_APPEND`` line can land
    between the fragment and that ``\\n``, so the line reads as fragment +
    complete record.  When the line does not parse as one object, the
    object that *ends* it is recovered: the first ``{`` after position 0
    from which the rest of the line parses as one object.  ``whole`` is
    False when a fragment was dropped or nothing could be recovered, so
    readers still count the line as skipped.
    """
    start = 0
    while start != -1:
        try:
            obj = json.loads(line[start:])
        except ValueError:  # JSONDecodeError, UnicodeDecodeError
            obj = None
        if isinstance(obj, dict):
            return obj, start == 0
        start = line.find(b"{", start + 1)
    return None, False
