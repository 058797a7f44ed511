"""Deterministic fault injection + transient-fault resilience primitives.

Five I/O-heavy subsystems (artifact store, result store, lease
coordination, sharded datasets, serving) share one fault model:

- :mod:`repro.faults.taxonomy` — the errno taxonomy splitting *transient*
  faults (``EAGAIN``, ``EINTR``, ``ESTALE``, ``EIO``-on-read: retry) from
  *fatal* ones (``ENOSPC``, ``EROFS``, ``EACCES``: fail fast, never retry);
- :mod:`repro.faults.retry` — :class:`RetryPolicy`, bounded exponential
  backoff with seeded jitter and injectable clock/sleep (tests never
  real-sleep), plus the process-ambient default policy every retried call
  site looks up at call time (:func:`use_policy` swaps it);
- :mod:`repro.faults.inject` — the deterministic fault injector: named
  fault points with seeded schedules (fail-first-N, every-Kth, seeded
  rate, torn/short writes), installable in-process via the
  :func:`inject` context manager and in CLI subprocesses via the
  ``REPRO_FAULTS`` environment spec;
- :mod:`repro.faults.breaker` — :class:`CircuitBreaker`, the
  open → half-open → closed lifecycle the serving layer wraps around
  repeated model-load failures.

The injector and the retry engine are designed to compose: fault points
sit *inside* the retried operation, so each retry attempt observes the
next tick of the schedule — ``first:2:EAGAIN`` means two transient
failures, then success on the third attempt.
"""

from repro.faults.breaker import BreakerOpen, CircuitBreaker
from repro.faults.inject import (
    FAULT_POINTS,
    FaultInjector,
    FaultSpecError,
    active_injector,
    checked_write,
    inject,
    install_from_env,
    trip,
)
from repro.faults.retry import (
    RetryExhausted,
    RetryPolicy,
    get_default_policy,
    set_default_policy,
    use_policy,
)
from repro.faults.taxonomy import (
    FATAL_ERRNOS,
    TRANSIENT_ERRNOS,
    FaultClass,
    classify_exception,
    is_fatal,
    is_transient,
)

__all__ = [
    "BreakerOpen",
    "CircuitBreaker",
    "FAULT_POINTS",
    "FATAL_ERRNOS",
    "FaultClass",
    "FaultInjector",
    "FaultSpecError",
    "RetryExhausted",
    "RetryPolicy",
    "TRANSIENT_ERRNOS",
    "active_injector",
    "checked_write",
    "classify_exception",
    "get_default_policy",
    "inject",
    "install_from_env",
    "is_fatal",
    "is_transient",
    "set_default_policy",
    "trip",
    "use_policy",
]
