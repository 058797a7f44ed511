"""Hot detector registry: (spec fingerprint → loaded detector) with LRU.

The serving layer routes every request by the
:meth:`~repro.spec.DetectorSpec.fingerprint` of the detector that should
handle it.  This registry turns a *model root* — a directory of
:func:`~repro.persistence.save_detector` outputs — into an in-memory pool:

- :meth:`DetectorRegistry.acquire` returns the hot instance for a
  fingerprint, loading it from disk on first use (cheap: arrays only — the
  PR-5 artifact store already made representation state a read, not a
  retrain) and evicting the least-recently-used entry beyond ``capacity``.
  Hot instances serve *stateless* detect calls; the event loop runs one
  handler's synchronous attach→predict block at a time, so a shared
  instance is never observed mid-reattach.
- :meth:`DetectorRegistry.checkout` loads a **private** instance for a
  tenant session.  A :class:`~repro.core.detector.DetectionSession` owns its
  dataset and patches probabilities in place; sharing one instance across
  tenants would let one tenant's repairs poison another's scores.  Checked
  out instances live with the tenant, not in the LRU.

A directory that fails to load (corrupt ``state.json``, missing arrays,
version mismatch) raises :class:`RegistryError` with ``code =
"corrupt_model"`` and is *not* cached: the registry never holds a poisoned
entry, and a later request retries the load from disk — so repairing the
directory (or re-saving the model) heals the server without a restart.

**Degradation.**  Transient disk faults during a load retry through a
:class:`~repro.faults.retry.RetryPolicy` at the ``serve.load`` fault
point.  Repeated load failures for one fingerprint trip a per-fingerprint
:class:`~repro.faults.breaker.CircuitBreaker`: further requests fail fast
with ``code = "circuit_open"`` (the server maps it to a 503 with
``Retry-After``) instead of re-paying the full load cost, and after the
cooldown a single probe request re-attempts the load — success closes the
circuit, so a repaired directory heals the server without a restart.
"""

from __future__ import annotations

import json
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.faults.breaker import BreakerOpen, CircuitBreaker
from repro.faults.inject import trip
from repro.faults.retry import get_default_policy
from repro.persistence import detector_index, load_detector
from repro.spec import SpecError, resolve_fingerprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.detector import HoloDetect
    from repro.dataset.table import Dataset


class RegistryError(Exception):
    """A fingerprint cannot be served.

    ``code`` is a stable machine-readable discriminator used by the wire
    protocol: ``unknown_fingerprint``, ``ambiguous_fingerprint``,
    ``corrupt_model``, or ``circuit_open`` (which also carries
    ``retry_after`` — seconds until the breaker admits a probe).
    """

    def __init__(self, code: str, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.code = code
        self.retry_after = retry_after


@dataclass
class RegistryStats:
    """Accounting for one :class:`DetectorRegistry`."""

    hits: int = 0
    loads: int = 0
    evictions: int = 0
    load_failures: int = 0
    checkouts: int = 0
    fast_failures: int = 0  # requests rejected by an open circuit

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "loads": self.loads,
            "evictions": self.evictions,
            "load_failures": self.load_failures,
            "checkouts": self.checkouts,
            "fast_failures": self.fast_failures,
        }


@dataclass
class DetectorRegistry:
    """LRU pool of loaded detectors keyed by spec fingerprint."""

    model_root: Path
    capacity: int = 8
    stats: RegistryStats = field(default_factory=RegistryStats)
    breaker_threshold: int = 3
    breaker_cooldown: float = 30.0
    clock: Callable[[], float] = time.monotonic

    def __post_init__(self) -> None:
        self.model_root = Path(self.model_root)
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        self._hot: "OrderedDict[str, HoloDetect]" = OrderedDict()
        self._index: dict[str, Path] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        self.refresh_index()

    def _breaker(self, fingerprint: str) -> CircuitBreaker:
        breaker = self._breakers.get(fingerprint)
        if breaker is None:
            breaker = self._breakers[fingerprint] = CircuitBreaker(
                f"load:{fingerprint[:16]}",
                failure_threshold=self.breaker_threshold,
                cooldown=self.breaker_cooldown,
                clock=self.clock,
            )
        return breaker

    def breaker_states(self) -> dict[str, dict[str, object]]:
        """Breakers whose circuit is open or half-open, keyed by fingerprint
        — the health endpoint's raw material.  A closed breaker still
        accumulating failures is not degraded: loads are still attempted.
        """
        return {
            fp: breaker.as_dict()
            for fp, breaker in self._breakers.items()
            if breaker.state != CircuitBreaker.CLOSED
        }

    # -- the on-disk index ------------------------------------------------ #

    def refresh_index(self) -> dict[str, Path]:
        """Rescan the model root (models may be saved while serving)."""
        self._index = detector_index(self.model_root)
        return dict(self._index)

    @property
    def fingerprints(self) -> list[str]:
        """Every servable fingerprint, sorted."""
        return sorted(self._index)

    @property
    def hot_fingerprints(self) -> list[str]:
        """Currently loaded fingerprints, least recently used first."""
        return list(self._hot)

    def resolve(self, query: str) -> str:
        """Expand a full-or-prefix fingerprint to one known fingerprint."""
        try:
            return resolve_fingerprint(query, self._index)
        except SpecError:
            # The model may have been saved after the last scan.
            self.refresh_index()
        try:
            return resolve_fingerprint(query, self._index)
        except SpecError as exc:
            code = (
                "ambiguous_fingerprint"
                if "ambiguous" in str(exc)
                else "unknown_fingerprint"
            )
            raise RegistryError(code, str(exc)) from exc

    def path_of(self, fingerprint: str) -> Path:
        """The saved-detector directory of one resolved fingerprint."""
        return self._index[self.resolve(fingerprint)]

    # -- loading ---------------------------------------------------------- #

    def _load(self, fingerprint: str, dataset: "Dataset") -> "HoloDetect":
        path = self._index[fingerprint]
        breaker = self._breaker(fingerprint)
        try:
            breaker.before_call()
        except BreakerOpen as exc:
            self.stats.fast_failures += 1
            raise RegistryError(
                "circuit_open", str(exc), retry_after=exc.retry_after
            ) from exc

        def load() -> "HoloDetect":
            trip("serve.load")
            return load_detector(path, dataset)

        try:
            # Transient disk faults retry inside this call; what escapes
            # is either fatal, exhausted (RetryExhausted is an OSError),
            # or genuinely corrupt state.
            detector = get_default_policy().call(
                load, point="serve.load", op="read"
            )
        except (
            json.JSONDecodeError,
            KeyError,
            ValueError,
            TypeError,
            OSError,
        ) as exc:
            self.stats.load_failures += 1
            breaker.record_failure(exc)
            raise RegistryError(
                "corrupt_model",
                f"saved detector at {path} failed to load: "
                f"{type(exc).__name__}: {exc}",
            ) from exc
        breaker.record_success()
        # Served detectors score whatever relation a request attaches; the
        # fit-time training-cell exclusion belongs to the original relation.
        detector._train_cells = set()
        return detector

    def acquire(self, query: str, dataset: "Dataset") -> "HoloDetect":
        """The hot instance for a fingerprint, attached to ``dataset``.

        Loads (and LRU-evicts) as needed.  The caller must finish its
        synchronous predict before any other coroutine can re-attach the
        shared instance — the asyncio handler guarantees that by never
        awaiting between attach and score.
        """
        fingerprint = self.resolve(query)
        detector = self._hot.get(fingerprint)
        if detector is None:
            detector = self._load(fingerprint, dataset)
            self.stats.loads += 1
            self._hot[fingerprint] = detector
            while len(self._hot) > self.capacity:
                self._hot.popitem(last=False)
                self.stats.evictions += 1
        else:
            self.stats.hits += 1
            detector._dataset = dataset
        self._hot.move_to_end(fingerprint)
        return detector

    def checkout(self, query: str, dataset: "Dataset") -> "HoloDetect":
        """A private instance for a tenant session (never shared, never LRU'd)."""
        fingerprint = self.resolve(query)
        detector = self._load(fingerprint, dataset)
        self.stats.checkouts += 1
        return detector

    def evict(self, query: str) -> bool:
        """Drop a hot entry; returns whether one was loaded.

        Existing tenant sessions keep their checked-out instances; only the
        shared stateless instance is dropped, and the next acquire reloads
        cleanly from disk.
        """
        try:
            fingerprint = self.resolve(query)
        except RegistryError:
            return False
        return self._hot.pop(fingerprint, None) is not None
