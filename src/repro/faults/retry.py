"""Bounded exponential backoff with seeded jitter and injectable sleep.

One :class:`RetryPolicy` instance, the process-ambient default, serves
every retried call site (it is thread-safe; the counters are
lock-guarded).  Call sites look it up with :func:`get_default_policy` at
call time, so a :func:`use_policy` context reaches stores built before it.
The contract at every call site is :meth:`RetryPolicy.call`::

    policy.call(lambda: os.write(fd, line), point="store.append", op="write")

- a **transient** fault (per :mod:`repro.faults.taxonomy`) sleeps the next
  backoff delay and retries, up to ``max_attempts`` total attempts;
- a **fatal or unknown** fault is re-raised immediately — retrying a full
  disk only hides it;
- exhausting the attempts raises :class:`RetryExhausted`, an ``OSError``
  subclass carrying the last fault's errno, so existing ``except OSError``
  handling keeps working while tests can assert the exhaustion path
  precisely.

Backoff delays are *deterministic*: the jitter for attempt ``k`` at fault
point ``p`` is derived by hashing ``(seed, p, k)``, not drawn from a
global RNG — two runs of the same schedule back off identically, which is
what keeps chaos tests reproducible.  ``sleep`` is injectable (and the
process-ambient default policy can be swapped via :func:`use_policy`), so
no test ever real-sleeps through a backoff.

Environment knobs for subprocess fleets (the chaos CI job): the *default*
policy reads ``REPRO_RETRY_BASE_DELAY`` / ``REPRO_RETRY_ATTEMPTS`` at
first use, so ``REPRO_RETRY_BASE_DELAY=0`` makes a whole CLI worker fleet
retry without wall-clock cost.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, TypeVar

from repro.faults.taxonomy import FaultClass, classify_exception

T = TypeVar("T")


class RetryExhausted(OSError):
    """A transient fault persisted through every allowed attempt.

    Subclasses ``OSError`` (with the last fault's errno) so call sites
    that already handle ``OSError`` degrade gracefully; ``point`` and
    ``attempts`` make the exhaustion observable to tests and logs.
    """

    def __init__(self, point: str, attempts: int, last: BaseException):
        errno_value = getattr(last, "errno", None)
        super().__init__(
            errno_value,
            f"{point}: transient fault persisted through {attempts} attempts: "
            f"{type(last).__name__}: {last}",
        )
        self.point = point
        self.attempts = attempts
        self.last = last


class RetryStats:
    """Lock-guarded counters for one :class:`RetryPolicy`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.retries = 0  # sleeps taken (attempts beyond the first)
        self.exhausted = 0  # calls that ran out of attempts
        self.fatal = 0  # calls re-raised immediately on a fatal fault
        self.by_point: dict[str, int] = {}

    def note_retry(self, point: str) -> None:
        with self._lock:
            self.retries += 1
            self.by_point[point] = self.by_point.get(point, 0) + 1

    def note_exhausted(self) -> None:
        with self._lock:
            self.exhausted += 1

    def note_fatal(self) -> None:
        with self._lock:
            self.fatal += 1

    def as_dict(self) -> dict[str, object]:
        with self._lock:
            return {
                "retries": self.retries,
                "exhausted": self.exhausted,
                "fatal": self.fatal,
                "by_point": dict(self.by_point),
            }


class RetryPolicy:
    """Bounded exponential backoff: ``max_attempts`` total tries.

    ``jitter`` is the symmetric fractional spread around each delay
    (0.25 → each delay lands in ``[0.75d, 1.25d]``), derived
    deterministically from ``(seed, point, attempt)``.
    """

    def __init__(
        self,
        max_attempts: int = 4,
        base_delay: float = 0.05,
        max_delay: float = 2.0,
        multiplier: float = 2.0,
        jitter: float = 0.25,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if base_delay < 0 or max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0 <= jitter <= 1:
            raise ValueError(f"jitter must be in [0, 1], got {jitter}")
        if multiplier < 1:
            raise ValueError(f"multiplier must be >= 1, got {multiplier}")
        self.max_attempts = int(max_attempts)
        self.base_delay = float(base_delay)
        self.max_delay = float(max_delay)
        self.multiplier = float(multiplier)
        self.jitter = float(jitter)
        self.seed = int(seed)
        self.sleep = sleep
        self.stats = RetryStats()

    def __repr__(self) -> str:
        return (
            f"RetryPolicy(attempts={self.max_attempts}, "
            f"base={self.base_delay}, max={self.max_delay})"
        )

    # -- deterministic backoff -------------------------------------------- #

    def delay(self, point: str, attempt: int) -> float:
        """The backoff before attempt ``attempt + 1`` (attempts count from 1)."""
        raw = min(
            self.max_delay, self.base_delay * self.multiplier ** (attempt - 1)
        )
        if not self.jitter or not raw:
            return raw
        digest = hashlib.sha256(
            f"{self.seed}:{point}:{attempt}".encode("utf-8")
        ).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2**64  # [0, 1)
        return raw * (1.0 - self.jitter + 2.0 * self.jitter * fraction)

    def delays(self, point: str) -> Iterator[float]:
        """The full deterministic backoff schedule for one fault point."""
        for attempt in range(1, self.max_attempts):
            yield self.delay(point, attempt)

    # -- the retry loop --------------------------------------------------- #

    def call(
        self,
        fn: Callable[[], T],
        *,
        point: str,
        op: str = "read",
        on_retry: Callable[[BaseException, int], None] | None = None,
    ) -> T:
        """Run ``fn`` retrying transient faults; see the module docstring.

        ``on_retry(exc, attempt)`` fires before each backoff sleep — the
        hook call sites use to heal partial state (e.g. terminating a torn
        append) before the operation is reissued.
        """
        last: BaseException | None = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                return fn()
            except Exception as exc:
                if classify_exception(exc, op) is not FaultClass.TRANSIENT:
                    if isinstance(exc, OSError):
                        self.stats.note_fatal()
                    raise
                last = exc
                if attempt == self.max_attempts:
                    break
                if on_retry is not None:
                    on_retry(exc, attempt)
                self.stats.note_retry(point)
                self.sleep(self.delay(point, attempt))
        self.stats.note_exhausted()
        assert last is not None
        raise RetryExhausted(point, self.max_attempts, last) from last


# --------------------------------------------------------------------------- #
# The process-ambient default policy
# --------------------------------------------------------------------------- #

_default_lock = threading.Lock()
_default_policy: RetryPolicy | None = None


def _policy_from_env() -> RetryPolicy:
    base = os.environ.get("REPRO_RETRY_BASE_DELAY")
    attempts = os.environ.get("REPRO_RETRY_ATTEMPTS")
    kwargs: dict[str, float | int] = {}
    if base is not None:
        kwargs["base_delay"] = max(0.0, float(base))
        kwargs["max_delay"] = max(0.0, float(base)) * 16
    if attempts is not None:
        kwargs["max_attempts"] = max(1, int(attempts))
    return RetryPolicy(**kwargs)  # type: ignore[arg-type]


def get_default_policy() -> RetryPolicy:
    """The process-ambient policy retried call sites resolve by default."""
    global _default_policy
    with _default_lock:
        if _default_policy is None:
            _default_policy = _policy_from_env()
        return _default_policy


def set_default_policy(policy: RetryPolicy | None) -> None:
    """Install (or with ``None``, reset) the process-ambient policy."""
    global _default_policy
    with _default_lock:
        _default_policy = policy


@contextmanager
def use_policy(policy: RetryPolicy):
    """Temporarily install ``policy`` as the ambient default (tests)."""
    global _default_policy
    with _default_lock:
        previous = _default_policy
        _default_policy = policy
    try:
        yield policy
    finally:
        with _default_lock:
            _default_policy = previous
