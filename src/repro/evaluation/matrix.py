"""Declarative scenario matrix + parallel sweep execution.

The paper's evaluation is a grid — datasets × error profiles × label
budgets × methods, several seeded trials each (§6.1, Tables 2–5).  This
module makes that grid a first-class object:

- :class:`ScenarioMatrix` declares the axes (loaded from a TOML/JSON spec
  file or built in code) and expands to concrete :class:`ScenarioSpec`\\ s;
- :class:`ScenarioSpec` is a pure-data description of one grid point with a
  stable content *fingerprint* (SHA-256 over canonical JSON) and
  deterministic derived seeds, so a scenario's result is a function of its
  spec alone — independent of execution order, worker count, or executor;
- :func:`run_scenario` executes one spec end-to-end (generate bundle →
  apply error profile → build method adapter → seeded trials);
- :func:`run_matrix` drains the specs through one claim loop, inline or
  on a process pool — claiming from a private queue, or from lease files
  shared with other workers (``coordinate=``) — and streams finished
  records into a resumable :class:`~repro.evaluation.store.ResultStore`.

Seed derivation is *scoped*, not global: the dataset seed depends only on
(matrix seed, dataset, rows) and the trial seed additionally on the error
profile and label budget — but never on the method.  Two methods at the
same grid point therefore see byte-identical dirty data and splits, which
is what makes Table-2-style columns comparable.
"""

from __future__ import annotations

import hashlib
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED, CancelledError, Executor, Future, ProcessPoolExecutor, wait,
)
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.artifacts import ArtifactStore, get_default_store, set_default_store, use_store
from repro.baselines.adapters import build_method
from repro.data.registry import DEFAULT_ROWS, load_dataset
from repro.errors.profiles import apply_profile, resolve_profile
from repro.registry import REGISTRY, ComponentError
from repro.evaluation.report import markdown_table
from repro.evaluation.runner import ExperimentResult, run_trials
from repro.evaluation.store import ResultStore
from repro.utils.specfile import canonical_json, component_entry, load_spec_file, require_int
from repro.utils.timing import Timer

#: Fingerprint format version; bump when the spec schema changes meaning.
_FINGERPRINT_VERSION = "repro.scenario/v1"

#: JSON report schema identifier.
SWEEP_SCHEMA = "repro.sweep/v1"

_EXECUTORS = ("process", "serial")


class MatrixSpecError(ValueError):
    """A sweep spec is malformed (unknown axis value, bad type, ...)."""


def _derive_seed(*parts: object) -> int:
    """A stable 63-bit seed from a labelled tuple of spec components."""
    digest = hashlib.sha256(canonical_json(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


@dataclass(frozen=True)
class ScenarioSpec:
    """One grid point: pure data, picklable, content-fingerprinted."""

    dataset: str
    error_profile: str
    label_budget: float
    method: str
    rows: int | None = None
    error_params: Mapping[str, object] = field(default_factory=dict)
    method_params: Mapping[str, object] = field(default_factory=dict)
    trials: int = 3
    sampling_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        # Resolve the registry's default size *now*: the fingerprint (and
        # dataset seed) must pin the relation actually generated, not a
        # None that would silently track future DEFAULT_ROWS edits.
        if self.rows is None:
            object.__setattr__(self, "rows", DEFAULT_ROWS.get(self.dataset))

    def to_dict(self) -> dict[str, object]:
        """JSON-able canonical form (the fingerprint input)."""
        return {
            "dataset": self.dataset,
            "rows": self.rows,
            "error_profile": self.error_profile,
            "error_params": dict(self.error_params),
            "label_budget": self.label_budget,
            "method": self.method,
            "method_params": dict(self.method_params),
            "trials": self.trials,
            "sampling_fraction": self.sampling_fraction,
            "seed": self.seed,
        }

    def fingerprint(self) -> str:
        """SHA-256 over the canonical spec.  Stable across dict ordering,
        processes, and sessions — the :class:`ResultStore` key."""
        payload = f"{_FINGERPRINT_VERSION}:{canonical_json(self.to_dict())}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # -- scoped seeds ----------------------------------------------------
    # The scoping rule (see module docstring): widen the derivation tuple
    # only with the axes that should change the artefact.

    @property
    def dataset_seed(self) -> int:
        """Seeds bundle generation: same across profiles/budgets/methods."""
        return _derive_seed("dataset", self.seed, self.dataset, self.rows)

    @property
    def errors_seed(self) -> int:
        """Seeds error injection: same across budgets/methods."""
        return _derive_seed(
            "errors", self.seed, self.dataset, self.rows,
            self.error_profile, dict(self.error_params),
        )

    @property
    def trials_seed(self) -> int:
        """Seeds the trial splits: same across methods (comparable columns)."""
        return _derive_seed(
            "trials", self.seed, self.dataset, self.rows,
            self.error_profile, dict(self.error_params),
            self.label_budget, self.sampling_fraction, self.trials,
        )


@dataclass
class ScenarioMatrix:
    """The declared grid: axes + shared knobs, expandable to specs.

    Axis entries are ``(name, params)`` pairs; dataset params may carry
    ``rows``, profile params override :mod:`repro.errors.profiles` presets,
    method params feed :func:`repro.baselines.adapters.build_method`.
    """

    datasets: list[tuple[str, dict[str, object]]]
    error_profiles: list[tuple[str, dict[str, object]]]
    label_budgets: list[float]
    methods: list[tuple[str, dict[str, object]]]
    trials: int = 3
    sampling_fraction: float = 0.2
    seed: int = 0

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ScenarioMatrix":
        """Validate and build a matrix from a parsed spec mapping.

        The mapping may be the spec's top level or nested under a
        ``"matrix"`` key (the TOML layout).  Every axis value is validated
        eagerly — unknown datasets, methods, profiles, or parameters fail
        here, before any scenario runs.
        """
        if "matrix" in payload and isinstance(payload["matrix"], Mapping):
            strays = set(payload) - {"matrix"}
            if strays:
                raise MatrixSpecError(
                    f"keys {sorted(strays)} sit outside the [matrix] table and "
                    "would be silently ignored; move them under [matrix]"
                )
            payload = payload["matrix"]  # type: ignore[assignment]
        known = {
            "datasets", "error_profiles", "label_budgets", "methods",
            "trials", "sampling_fraction", "seed",
        }
        unknown = set(payload) - known
        if unknown:
            raise MatrixSpecError(f"unknown spec keys {sorted(unknown)}; valid: {sorted(known)}")

        def non_empty_list(key: str, value: object) -> Sequence:
            # str is a Sequence: without the explicit exclusion a bare
            # "hospital" would be iterated per character.
            if isinstance(value, (str, bytes)) or not isinstance(value, Sequence) or not value:
                raise MatrixSpecError(f"spec needs a non-empty {key!r} list")
            return value

        for key in ("datasets", "label_budgets", "methods"):
            non_empty_list(key, payload.get(key))

        datasets = []
        for raw in payload["datasets"]:  # type: ignore[union-attr]
            name, params = component_entry(raw, "datasets", MatrixSpecError)
            try:
                REGISTRY.entry("dataset", name)
            except ComponentError as exc:
                raise MatrixSpecError(str(exc)) from exc
            extra = set(params) - {"rows"}
            if extra:
                raise MatrixSpecError(f"dataset {name!r}: unknown keys {sorted(extra)}")
            if params.get("rows") is not None:
                try:
                    require_int("rows", params["rows"], 1)
                except ValueError as exc:
                    raise MatrixSpecError(f"dataset {name!r}: {exc}") from exc
            datasets.append((name, params))

        profiles_raw = non_empty_list("error_profiles", payload.get("error_profiles", ["native"]))
        profiles = []
        for raw in profiles_raw:  # type: ignore[union-attr]
            name, params = component_entry(raw, "error_profiles", MatrixSpecError)
            try:
                resolve_profile(name, **params)
            except ValueError as exc:
                raise MatrixSpecError(str(exc)) from exc
            profiles.append((name, params))

        budgets = []
        for budget in payload["label_budgets"]:  # type: ignore[union-attr]
            if not isinstance(budget, (int, float)) or not 0.0 < float(budget) < 1.0:
                raise MatrixSpecError(f"label budget {budget!r} must be in (0, 1)")
            budgets.append(float(budget))

        methods = []
        for raw in payload["methods"]:  # type: ignore[union-attr]
            name, params = component_entry(raw, "methods", MatrixSpecError)
            # build_method resolves through the registry: built-in keys and
            # 'module:attr' references both validate here, before any run.
            try:
                build_method(name, params)
            except ValueError as exc:
                raise MatrixSpecError(str(exc)) from exc
            methods.append((name, params))

        sampling = payload.get("sampling_fraction", 0.2)
        if not isinstance(sampling, (int, float)) or not 0.0 <= float(sampling) < 1.0:
            raise MatrixSpecError("sampling_fraction must be in [0, 1)")
        trials = payload.get("trials", 3)
        seed = payload.get("seed", 0)
        try:
            require_int("trials", trials, 1)
            require_int("seed", seed)
        except ValueError as exc:
            raise MatrixSpecError(str(exc)) from exc

        return cls(
            datasets=datasets,
            error_profiles=profiles,
            label_budgets=budgets,
            methods=methods,
            trials=trials,
            sampling_fraction=float(sampling),
            seed=seed,
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "ScenarioMatrix":
        """Load a spec file; format chosen by suffix (.toml or .json)."""
        return load_spec_file(path, cls.from_dict, MatrixSpecError)

    def to_dict(self) -> dict[str, object]:
        """JSON-able form (embedded in sweep reports)."""
        def axis(entries):
            return [{"name": n, **p} if p else n for n, p in entries]

        return {
            "datasets": axis(self.datasets),
            "error_profiles": axis(self.error_profiles),
            "label_budgets": list(self.label_budgets),
            "methods": axis(self.methods),
            "trials": self.trials,
            "sampling_fraction": self.sampling_fraction,
            "seed": self.seed,
        }

    def expand(self) -> list[ScenarioSpec]:
        """The cartesian product in declared order, deduped by fingerprint."""
        specs: list[ScenarioSpec] = []
        seen: set[str] = set()
        for dataset, dataset_params in self.datasets:
            for profile, profile_params in self.error_profiles:
                for budget in self.label_budgets:
                    for method, method_params in self.methods:
                        spec = ScenarioSpec(
                            dataset=dataset,
                            rows=dataset_params.get("rows"),  # type: ignore[arg-type]
                            error_profile=profile,
                            error_params=dict(profile_params),
                            label_budget=budget,
                            method=method,
                            method_params=dict(method_params),
                            trials=self.trials,
                            sampling_fraction=self.sampling_fraction,
                            seed=self.seed,
                        )
                        fingerprint = spec.fingerprint()
                        if fingerprint not in seen:
                            seen.add(fingerprint)
                            specs.append(spec)
        return specs


def scenario_record(spec: ScenarioSpec, result: ExperimentResult, elapsed: float) -> dict:
    """Serialise one executed scenario to the store/report record shape.

    Accuracy fields (``metrics``, ``trials``, ``mean_f1``, ``std_f1``) are
    pure functions of the spec; only ``runtimes``/``median_runtime``/
    ``elapsed`` carry wall-clock noise, so equality checks across executors
    should compare the accuracy fields.
    """
    median = result.median
    return {
        "fingerprint": spec.fingerprint(),
        "spec": spec.to_dict(),
        "metrics": {
            "precision": median.precision,
            "recall": median.recall,
            "f1": median.f1,
        },
        "mean_f1": result.mean_f1,
        "std_f1": result.std_f1,
        "trials": [
            {"precision": m.precision, "recall": m.recall, "f1": m.f1}
            for m in result.trials
        ],
        "runtimes": list(result.runtimes),
        "median_runtime": result.median_runtime,
        "elapsed": elapsed,
    }


def run_scenario(spec: ScenarioSpec) -> dict:
    """Execute one scenario end-to-end; deterministic given the spec."""
    bundle = load_dataset(spec.dataset, num_rows=spec.rows, seed=spec.dataset_seed)
    profile = resolve_profile(spec.error_profile, **dict(spec.error_params))
    bundle = apply_profile(bundle, profile, rng=spec.errors_seed)
    method = build_method(spec.method, spec.method_params)
    with Timer() as timer:
        result = run_trials(
            method,
            bundle,
            spec.label_budget,
            num_trials=spec.trials,
            sampling_fraction=spec.sampling_fraction,
            seed=spec.trials_seed,
        )
    return scenario_record(spec, result, timer.elapsed)


def _init_worker(directory: str | None) -> None:
    """Process-pool initializer: install the ambient artifact store for
    every detector the worker builds."""
    if directory is not None:
        set_default_store(ArtifactStore(directory=directory))


def _run_with_artifact_stats(runner: Callable[["ScenarioSpec"], dict], spec) -> dict:
    """Run one scenario and report the artifact-store counter delta it
    caused, so the coordinator can total hit/miss counts over the inline
    pool and process workers alike without touching the (resume-stable)
    scenario record.  ``degraded`` is a state, not a count: the scenario
    reports the store's flag as it left it."""
    store = get_default_store()
    if store is None:
        return {"record": runner(spec), "artifact_stats": None}
    before = store.stats.as_dict()
    record = runner(spec)
    after = store.stats.as_dict()
    return {
        "record": record,
        "artifact_stats": {
            k: v if isinstance(v, bool) else v - before[k] for k, v in after.items()
        },
    }


#: Absolute ceiling on pool size — beyond this, worker startup cost
#: dominates any timesharing benefit.
MAX_WORKERS = 64


def clamp_workers(requested: int, pending: int) -> int:
    """Clamp a worker request to ``[1, min(pending, MAX_WORKERS)]``.

    Zero/negative requests mean one worker, and there is never a reason
    for more workers than pending scenarios.  Oversubscribing CPUs is
    deliberately allowed: workers beyond the core count just timeshare,
    and capping at ``os.cpu_count()`` would silently serialise sweeps on
    small CI runners.
    """
    return max(1, min(int(requested), max(int(pending), 1), MAX_WORKERS))


@dataclass
class SweepReport:
    """The outcome of one :func:`run_matrix` call."""

    matrix: ScenarioMatrix
    records: list[dict]
    executed: int
    cached: int
    workers: int
    #: Artifact-store summary (``{"dir": ..., "stats": {...}}``) when the
    #: sweep ran with a shared artifact directory; ``None`` otherwise.
    #: Stats cover freshly executed scenarios only — records themselves
    #: stay pure functions of their spec (the resume contract).
    artifacts: dict | None = None
    #: Cooperative-mode summary (``{"dir", "worker", "ttl", "executed",
    #: "remote", ...}``) when the sweep ran with ``coordinate=``; ``None``
    #: for single-host sweeps.
    coordination: dict | None = None

    @property
    def total(self) -> int:
        return len(self.records)

    def table(self) -> str:
        """Markdown summary table, one scenario per row, expansion order."""
        rows = []
        for record in self.records:
            spec = record["spec"]
            metrics = record["metrics"]
            rows.append([
                spec["dataset"],
                spec["error_profile"],
                f"{spec['label_budget']:g}",
                spec["method"],
                f"{metrics['precision']:.3f}",
                f"{metrics['recall']:.3f}",
                f"{metrics['f1']:.3f}",
                f"{record['mean_f1']:.3f}±{record['std_f1']:.3f}",
                f"{record['median_runtime']:.2f}",
                "cached" if record.get("cached") else "run",
            ])
        return markdown_table(
            ["dataset", "profile", "budget", "method", "P", "R", "F1",
             "F1 mean±std", "runtime (s)", "source"],
            rows,
        )

    def to_json(self) -> dict:
        """The ``repro.sweep/v1`` report payload.

        The ``artifacts`` key is additive (present only for sweeps run
        with ``--artifacts``); consumers of the original schema are
        unaffected.
        """
        payload = {
            "schema": SWEEP_SCHEMA,
            "matrix": self.matrix.to_dict(),
            "total": self.total,
            "executed": self.executed,
            "cached": self.cached,
            "workers": self.workers,
            "scenarios": self.records,
        }
        if self.artifacts is not None:
            payload["artifacts"] = self.artifacts
        if self.coordination is not None:
            payload["coordination"] = self.coordination
        return payload


@dataclass(frozen=True)
class CoordinateOptions:
    """Knobs for the cooperative claim source of :func:`run_matrix`
    (``repro sweep --coordinate``).

    Lease files and the audit log live in ``<store path>.coord/``, so every
    worker and ``repro report`` agree on them with no extra configuration.
    ``ttl`` is the stale-lease reclaim threshold: a worker silent for longer
    than this forfeits its in-flight scenarios to the survivors.  Size it to
    a small multiple of the longest expected scenario *claim-to-heartbeat*
    gap — i.e. filesystem latency, not scenario runtime (heartbeats renew
    held leases every ``ttl / 4`` during execution) — 60 s is comfortable
    on NFS.  ``poll_interval`` is the idle re-scan period while other
    workers hold the remaining scenarios.
    """

    worker_id: str | None = None
    ttl: float = 60.0
    poll_interval: float | None = None


class _InlineExecutor(Executor):
    """The one-worker pool: ``submit`` runs the task in the caller's thread.

    A scenario's ``Exception`` lands in the returned future, as it would
    from a pool worker; an interrupt propagates at once, out of the loop.
    """

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


class _Sweep:
    """One :func:`run_matrix` call's results: a record per fingerprint,
    each reported to ``on_result`` as it arrives, plus the artifact-store
    counters every scenario sends back in its stats envelope."""

    def __init__(
        self,
        specs: list[ScenarioSpec],
        store: ResultStore | None,
        on_result: Callable[[dict], None] | None,
    ):
        self.specs = {spec.fingerprint(): spec for spec in specs}
        self.store = store
        self.on_result = on_result
        self.records: dict[str, dict] = {}
        self.artifact_totals: dict[str, int | bool] = {}

    def serve(self, fingerprint: str, remote: bool = False) -> None:
        """Report a stored record this invocation did not execute —
        finished by an earlier run, or (``remote``) by a peer worker."""
        record = dict(self.store.get(fingerprint) or {})
        record["cached"] = True
        self.records[fingerprint] = record
        if self.on_result is not None:
            self.on_result({**record, "remote": True} if remote else record)

    def finish(self, record: dict) -> None:
        """Append a freshly executed record to the store and report it."""
        record["cached"] = False
        if self.store is not None:
            self.store.put(record)
        self.records[record["fingerprint"]] = record
        if self.on_result is not None:
            self.on_result(record)

    def unwrap(self, result: dict) -> dict:
        """Strip a scenario's stats envelope: sum its counter deltas into
        the totals and OR in its ``degraded`` flag."""
        totals = self.artifact_totals
        for counter, value in (result["artifact_stats"] or {}).items():
            if isinstance(value, bool):
                totals[counter] = totals.get(counter, False) or value
            else:
                totals[counter] = totals.get(counter, 0) + value
        return result["record"]


def _drain(
    sweep: _Sweep, source: _LocalClaims | _LeaseClaims, pool: Executor, task: Callable, workers: int
) -> None:
    """The claim loop every sweep runs: keep up to ``workers`` claimed
    scenarios in flight on ``pool`` until ``source`` reports the matrix
    drained.

    The claim source decides what runs and what finishing means:
    ``claim(busy)`` returns the next fingerprint (``None`` when nothing is
    claimable now), ``complete(fp, record)`` lands a result,
    ``release(fp, event)`` gives a claim back, ``idle()`` runs when nothing
    is claimable or in flight and returns True once the matrix has
    drained, and ``abort()`` frees every claim still held.

    A failed scenario gives its claim back, lets in-flight siblings finish
    and lands their records — a ``--resume`` rerun repeats only the
    failure, never finished work — then raises naming the grid point.  An
    interrupt or a store failure abandons the sweep at once.
    """
    in_flight: dict[Future, str] = {}
    try:
        while True:
            while len(in_flight) < workers:
                fp = source.claim(set(in_flight.values()))
                if fp is None:
                    break
                in_flight[pool.submit(task, sweep.specs[fp])] = fp
            if not in_flight:
                if source.idle():
                    return
                continue
            done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            # The done set is unordered: land every completed sibling
            # before raising, so a failure never discards finished work.
            failed: tuple[str, BaseException] | None = None
            for future in done:
                fp = in_flight.pop(future)
                if future.exception() is None:
                    source.complete(fp, sweep.unwrap(future.result()))
                else:
                    source.release(fp, "failed")
                    failed = failed or (fp, future.exception())
            if failed is None:
                continue
            # Drop unstarted scenarios, but let running ones finish and land.
            pool.shutdown(wait=False, cancel_futures=True)
            for future, fp in in_flight.items():
                # wait() must not be used here: futures cancelled by the
                # shutdown queue-drain never reach CANCELLED_AND_NOTIFIED,
                # so wait() would block forever.  exception() blocks only
                # on genuinely in-flight work, and raises CancelledError
                # for a future the drain cancels, even while we wait: a
                # process pool cancels from its manager thread, after the
                # shutdown call has returned.
                try:
                    error = future.exception()
                except CancelledError:
                    source.release(fp, "release")
                    continue
                if error is not None:
                    source.release(fp, "failed")
                else:
                    source.complete(fp, sweep.unwrap(future.result()))
            in_flight.clear()
            fp, exc = failed
            spec = sweep.specs[fp]
            raise RuntimeError(
                f"scenario {spec.dataset}/{spec.error_profile}/{spec.label_budget:g}"
                f"/{spec.method} (fingerprint {fp[:12]}) failed: {exc}"
            ) from exc
    except BaseException:
        # Interrupts and store failures: don't burn CPU finishing a doomed
        # sweep, and free every claim still held so peers pick the
        # scenarios up without waiting out the TTL (whoever re-runs them
        # lands the same bits anyway).
        pool.shutdown(wait=False, cancel_futures=True)
        source.abort()
        raise


class _LocalClaims:
    """Claim source of a plain sweep: a private queue of the scenarios
    still to run.  Every claim wins and nobody else contributes, so there
    is nothing to give back or poll — an empty queue means done."""

    def __init__(self, sweep: _Sweep, pending: list[str]):
        self.sweep = sweep
        self.pending = deque(pending)

    def claim(self, busy: set[str]) -> str | None:
        return self.pending.popleft() if self.pending else None

    def complete(self, fingerprint: str, record: dict) -> None:
        self.sweep.finish(record)

    def release(self, fingerprint: str, event: str) -> None:
        pass

    def idle(self) -> bool:
        return True

    def abort(self) -> None:
        pass


class _LeaseClaims:
    """Claim source of a cooperative sweep (``coordinate=``): the scenarios
    missing from the shared store, claimed through lease files
    (:mod:`repro.coordination`) so N workers — possibly on other hosts
    sharing the store's filesystem — drain one matrix together.

    The store is the completion ledger: a record is appended *before* its
    lease is released, and only fingerprints missing from the store are
    candidates, so finished work is never re-claimed, even across restarts.
    Nothing claimable does not mean done — peers may hold the rest — so
    :meth:`idle` polls: other workers' completions arrive via
    :meth:`ResultStore.refresh`, and leases whose heartbeat exceeded the
    TTL are reclaimed so a killed worker's scenarios re-enter the pool.
    """

    def __init__(self, sweep: _Sweep, coordinate: CoordinateOptions):
        from repro.coordination import HeartbeatThread, WorkQueue, coordination_dir

        self.sweep = sweep
        self.store = sweep.store
        self.queue = WorkQueue(
            coordination_dir(self.store.path), worker_id=coordinate.worker_id, ttl=coordinate.ttl
        )
        self.heartbeat = HeartbeatThread(self.queue)
        self.poll = (
            coordinate.poll_interval
            if coordinate.poll_interval is not None
            else min(1.0, self.queue.ttl / 4.0)
        )

    def claim(self, busy: set[str]) -> str | None:
        """Claim the next runnable scenario; None when nothing claimable.

        After winning a claim the store is re-scanned: the lease may have
        been absent because another worker *finished* the scenario between
        our completion scan and the claim — then the claim is released
        unused (``skip``) instead of re-executing done work.
        """
        for fp in self.store.missing(self.sweep.specs):
            if fp in busy or not self.queue.claim(fp):
                continue
            self.store.refresh()
            if fp in self.store:
                self.queue.release(fp, event="skip")
                continue
            self.queue.audit("execute", fp)
            return fp
        return None

    def complete(self, fingerprint: str, record: dict) -> None:
        # Check the lease *before* the put: a worker that slept past its
        # TTL was reclaimed, and the scenario now belongs to whoever
        # re-claimed it.  Writing our record anyway would double-write the
        # store (latest-wins keeps it correct, but the audit would show a
        # completion from a worker that no longer held the lease).  The
        # "lost" audit event was already appended at detection time by
        # renew(); here we abandon the record and let idle() report the
        # new owner's result.
        if fingerprint in self.heartbeat.lost or fingerprint not in self.queue.held():
            self.queue.audit("abandoned", fingerprint)
            return
        self.sweep.finish(record)
        self.queue.release(fingerprint, event="complete")

    def release(self, fingerprint: str, event: str) -> None:
        self.queue.release(fingerprint, event=event)

    def idle(self) -> bool:
        """One poll iteration; True when the matrix has fully drained."""
        self.store.refresh()
        for fp in self.sweep.specs:
            if fp not in self.sweep.records and fp in self.store:
                self.sweep.serve(fp, remote=True)
        missing = self.store.missing(self.sweep.specs)
        if not missing:
            return True
        if not self.queue.reclaim_stale(missing):
            time.sleep(self.poll)
        return False

    def abort(self) -> None:
        for fp in self.queue.held():
            self.queue.release(fp, event="abort")


def run_matrix(
    matrix: ScenarioMatrix,
    store: ResultStore | None = None,
    workers: int = 1,
    resume: bool = False,
    executor: str = "process",
    on_result: Callable[[dict], None] | None = None,
    scenario_runner: Callable[[ScenarioSpec], dict] = run_scenario,
    artifact_dir: str | Path | None = None,
    coordinate: CoordinateOptions | None = None,
) -> SweepReport:
    """Run every scenario in ``matrix``, fanning out over a worker pool.

    With ``resume=True`` and a ``store``, scenarios whose fingerprint is
    already on disk are served from the store (``record["cached"]`` is
    True) and only the missing ones execute; every freshly executed record
    is appended to the store as soon as it finishes, so a killed sweep
    restarts where it left off.  Results are returned in expansion order
    regardless of completion order, and each scenario is self-seeded, so
    metrics are identical for any ``workers``/``executor`` choice.

    One effective worker runs each scenario inline, in the caller's thread;
    more run on a process pool of that size (scenarios are CPU-bound).
    ``executor="serial"`` forces the inline pool whatever ``workers`` says;
    ``"process"`` (the default) leaves the choice to ``workers``, clamped
    by :func:`clamp_workers`.  ``on_result`` is called in completion order
    from the coordinating process.

    ``artifact_dir`` attaches a shared fitted-artifact store directory
    (:mod:`repro.artifacts`): every worker serves trained embeddings and
    fitted featurizer states from it, so scenarios that fit the same
    component on the same data (the Table-2 shape: many methods × budgets
    × trials over one dirty relation) share one fit instead of retraining.
    Fits are content-seeded, so metrics are bit-identical with or without
    the store, at any worker count.

    ``coordinate`` makes this invocation one of N independent cooperating
    workers (possibly on other hosts sharing the store's filesystem):
    instead of running a private queue of scenarios, it *claims* them one
    at a time through lease files (:mod:`repro.coordination`) and returns
    once the whole matrix is in the store, with records for every scenario
    — locally executed or not.  Requires a ``store`` (the shared completion
    ledger) and implies ``resume``.
    """
    if executor not in _EXECUTORS:
        raise ValueError(f"unknown executor {executor!r}; choose from {_EXECUTORS}")
    if coordinate is not None and store is None:
        raise ValueError(
            "coordinated sweeps need a store: it is the shared completion ledger"
        )
    artifact_dir = str(artifact_dir) if artifact_dir is not None else None
    sweep = _Sweep(matrix.expand(), store, on_result)
    if store is not None and (resume or coordinate is not None):
        store.refresh()  # a cooperating peer may have appended since it was opened
        for fp in sweep.specs:
            if fp in store:
                sweep.serve(fp)
    initially_cached = len(sweep.records)
    pending = [fp for fp in sweep.specs if fp not in sweep.records]
    effective = 1 if executor == "serial" else clamp_workers(workers, len(pending))
    with ExitStack() as stack:
        if coordinate is None:
            source = _LocalClaims(sweep, pending)
        else:
            source = _LeaseClaims(sweep, coordinate)
            stack.enter_context(source.heartbeat)
        if effective == 1:
            # The inline worker is this process: install the ambient store
            # for the drain, as the pool initializer does in each worker.
            if artifact_dir is not None:
                stack.enter_context(use_store(ArtifactStore(artifact_dir)))
            pool = _InlineExecutor()
        else:
            pool = ProcessPoolExecutor(
                max_workers=effective,
                initializer=_init_worker,
                initargs=(artifact_dir,),
            )
        # Every scenario sends its artifact counters back with its record,
        # so the report's totals have one source whichever pool ran it;
        # with nothing executed they stay empty.
        task = partial(_run_with_artifact_stats, scenario_runner)
        _drain(sweep, source, stack.enter_context(pool), task, effective)

    executed = sum(not record["cached"] for record in sweep.records.values())
    return SweepReport(
        matrix=matrix,
        records=[sweep.records[fp] for fp in sweep.specs],
        executed=executed,
        cached=len(sweep.specs) - executed,
        workers=effective,
        artifacts=None if artifact_dir is None else {
            "dir": artifact_dir, "stats": sweep.artifact_totals,
        },
        coordination=None if coordinate is None else {
            "dir": str(source.queue.directory),
            "worker": source.queue.worker_id,
            "ttl": source.queue.ttl,
            "executed": executed,
            "remote": len(sweep.specs) - executed - initially_cached,
            "initially_cached": initially_cached,
        },
    )
