"""The three benchmark workloads: ``cold_fit``, ``warm_sweep``, ``serve_mixed``.

Each workload is a function ``(ctx) -> Outcome``.  It builds every input
from fixed generator settings and ``ctx.seed`` before timing starts, sets
up ``SETUP_REPEATS`` times (the reported ``setup_s`` is the median), then
runs timed operations for at least ``ctx.seconds`` seconds and at least a
minimum number of operations, and checks the program's outputs.

The relation of each workload is fixed (the ``hospital`` generator at a
fixed scale and data seed), so the accuracy figures are golden values that
travel with the timings.  ``ctx.seed`` drives everything that varies the
work without changing how much of it there is: the order in which
``cold_fit`` predicts the test cells, the order of the sweep's scenarios,
and the request stream of ``serve_mixed``.

In a traced run (``ctx.traced``) every operation runs inside a tracing
window and is the root span of its own trace.
"""

from __future__ import annotations

import contextlib
import hashlib
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

SETUP_REPEATS = 3
DATASET = "hospital"
#: Label budget of cold_fit and serve_mixed (the paper's 5% of tuples).
TRAIN_FRACTION = 0.05

COLD_ROWS = 150
#: This relation's 5% split labels 6 true errors, so the golden F1 sits well
#: away from 0 (at this scale some splits label none, and F1 is 0).
COLD_DATA_SEED = 6
COLD_MIN_OPS = 3
#: cold_fit's set-up fits this small relation once, so lazy imports and
#: first-call initialisation are paid before timing starts.
WARMUP_ROWS = 30

SWEEP_ROWS = 120
SWEEP_BUDGETS = (0.05, 0.10, 0.20)
SWEEP_METHODS = ("holodetect", "superl")
SWEEP_TRIALS = 1
SWEEP_MATRIX_SEED = 7
SWEEP_MIN_SWEEPS = 2

#: serve_mixed re-corrupts its relation with Hospital's 'x' typo channel
#: at 7% of the informative cells: 100 rows then hold 119 true-error cells,
#: enough for one distinct repair per rescore.
SERVE_ROWS = 100
SERVE_DATA_SEED = 7
SERVE_ERROR_RATE = 0.07
SERVE_CLIENTS = 2
SERVE_CELLS_PER_DETECT = 30
SERVE_RESCORE_EVERY = 10
SERVE_MIN_DETECTS = 1000
SERVE_MIN_RESCORES = 100
SERVE_TENANT = "bench"


@dataclass
class Context:
    seed: int
    seconds: float
    traced: bool
    tmp: Path
    tracer: object = None
    instrumentation: object = None

    def fresh_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.tmp))

    def op_span(self, name: str):
        """The root span of one benchmark operation (a no-op untraced)."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(f"op.{name}", "op", trace=self.tracer.new_trace())


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    #: Latency of each successful operation, seconds.
    op_latencies: list[float] = field(default_factory=list)
    f1: float = 0.0
    #: The workload's own named figures: name -> (value, unit).
    detail: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Per-layer figures measured by the workload itself.
    layer_extras: dict[str, float] = field(default_factory=dict)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(message)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


class Windows:
    """Runs operations, inside tracing windows when the run is traced, and
    adds up what the per-layer report needs from those windows."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.cpu_s = 0.0
        self.cache_hits = 0
        self.cache_lookups = 0

    def run(self, fn: Callable[[], object], op: str | None = None):
        """Run ``fn``; traced, as operation ``op``'s root span when named."""
        if not self.ctx.traced:
            return fn()
        tracer, instr = self.ctx.tracer, self.ctx.instrumentation
        before = {id(s): (s.hits, s.lookups) for s in instr.cache_stats}
        cpu = time.process_time()
        tracer.start_window()
        try:
            if op is None:
                return fn()
            with self.ctx.op_span(op):
                return fn()
        finally:
            tracer.stop_window()
            self.cpu_s += time.process_time() - cpu
            for stats in instr.cache_stats:
                hits, lookups = before.get(id(stats), (0, 0))
                self.cache_hits += stats.hits - hits
                self.cache_lookups += stats.lookups - lookups

    def schedule(self, min_ops: int):
        """Count operations until the run has lasted ``seconds`` and done
        at least ``min_ops`` of them."""
        start = time.perf_counter()
        done = 0
        while done < min_ops or time.perf_counter() - start < self.ctx.seconds:
            yield done
            done += 1

    def record(self, out: Outcome) -> None:
        out.layer_extras["process.cpu_s"] = self.cpu_s
        out.layer_extras["features.cache_hits"] = self.cache_hits
        out.layer_extras["features.cache_lookups"] = self.cache_lookups


def _seeded(seed: int, salt: str) -> np.random.Generator:
    digest = hashlib.sha256(f"{salt}:{seed}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def _checksum(values: np.ndarray) -> str:
    data = np.ascontiguousarray(values, dtype=np.float64).tobytes()
    return hashlib.sha256(data).hexdigest()


# --------------------------------------------------------------------------- #
# cold_fit
# --------------------------------------------------------------------------- #


def cold_fit(ctx: Context) -> Outcome:
    """A first-time ``repro detect --artifacts DIR``: fit against an empty
    artifact directory, then predict the test cells."""
    from repro import DetectorConfig, HoloDetect, load_dataset, make_split
    from repro.evaluation.metrics import evaluate_predictions

    out = Outcome()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        small = load_dataset(DATASET, num_rows=WARMUP_ROWS, seed=COLD_DATA_SEED)
        HoloDetect().fit(small.dirty, make_split(small, 0.2, rng=0).training,
                         small.constraints)
        bundle = load_dataset(DATASET, num_rows=COLD_ROWS, seed=COLD_DATA_SEED)
        split = make_split(bundle, TRAIN_FRACTION, rng=COLD_DATA_SEED)
        out.setup_s.append(time.perf_counter() - start)
    test_cells = list(split.test_cells)
    permutation = _seeded(ctx.seed, "cold_fit").permutation(len(test_cells))
    order = [test_cells[i] for i in permutation]

    windows = Windows(ctx)
    fit_s, predict_s, results = [], [], set()

    def one_fit():
        artifacts = ctx.fresh_dir("cold-artifacts-")
        detector = HoloDetect(DetectorConfig(artifact_dir=str(artifacts)))
        t0 = time.perf_counter()
        detector.fit(bundle.dirty, split.training, bundle.constraints)
        t1 = time.perf_counter()
        predictions = detector.predict(order)
        t2 = time.perf_counter()
        return detector, predictions, t1 - t0, t2 - t1

    for _ in windows.schedule(COLD_MIN_OPS):
        out.attempted += 1
        try:
            detector, predictions, fit_time, predict_time = windows.run(one_fit, "cold_fit")
        except Exception as exc:  # noqa: BLE001 - reported as a failed op
            out.fail(f"cold fit raised {type(exc).__name__}: {exc}")
            continue
        # Hermetic: a cold fit reads nothing an earlier fit stored; its
        # only hits are keys this same fit stored moments earlier.
        stats = detector.artifact_stats
        if stats.disk_hits != 0 or stats.puts != stats.misses:
            out.fail(f"cold fit was served from a warm store: {stats.as_dict()}")
            continue
        by_cell = dict(zip(predictions.cells, predictions.probabilities))
        probabilities = np.array([by_cell[c] for c in test_cells])
        flagged = {c for c, p in zip(test_cells, probabilities) if p >= 0.5}
        m = evaluate_predictions(flagged, bundle.error_cells, test_cells)
        results.add((_checksum(probabilities), m.precision, m.recall, m.f1))
        fit_s.append(fit_time)
        predict_s.append(predict_time)
        out.op_latencies.append(fit_time + predict_time)
    if len(results) > 1:
        out.fail(f"cold fits disagree: {sorted(results)}")
    if results:
        checksum, precision, recall, out.f1 = next(iter(results))
        out.notes.append(f"probability checksum {checksum}")
        out.detail.update(precision=(precision, "ratio"), recall=(recall, "ratio"))
    if fit_s:
        out.detail["fit_s"] = (statistics.median(fit_s), "s")
        out.detail["predict_s"] = (statistics.median(predict_s), "s")
    windows.record(out)
    return out


# --------------------------------------------------------------------------- #
# warm_sweep
# --------------------------------------------------------------------------- #


def _accuracy(record: dict) -> tuple:
    """The accuracy fields of a scenario record (pure functions of its spec)."""
    return (
        record["fingerprint"],
        tuple(sorted(record["metrics"].items())),
        record["mean_f1"], record["std_f1"],
        tuple(tuple(sorted(t.items())) for t in record["trials"]),
    )


def _index_kinds(directory: Path) -> list[str]:
    from repro.artifacts import ArtifactStore

    return [r.get("kind", "") for r in ArtifactStore(directory=directory).index()]


def warm_sweep(ctx: Context) -> Outcome:
    """Table 2's shape: label budgets x {holodetect, superl} x trials over
    one relation, served from an artifact store warmed during setup."""
    import repro.evaluation.matrix as matrix_mod
    from repro.evaluation.matrix import ScenarioMatrix, run_matrix
    from repro.evaluation.store import ResultStore

    out = Outcome()

    def matrix(budget_axis, method_axis) -> ScenarioMatrix:
        return ScenarioMatrix.from_dict({
            "datasets": [{"name": DATASET, "rows": SWEEP_ROWS}],
            "error_profiles": ["native"],
            "label_budgets": list(budget_axis),
            "methods": list(method_axis),
            "trials": SWEEP_TRIALS,
            "seed": SWEEP_MATRIX_SEED,
        })

    # Setup: run the reference scenario cold; it warms the store.
    references = set()
    for _ in range(SETUP_REPEATS):
        artifacts = ctx.fresh_dir("sweep-artifacts-")
        store = ResultStore(ctx.fresh_dir("sweep-setup-") / "store.jsonl")
        start = time.perf_counter()
        report = run_matrix(
            matrix(SWEEP_BUDGETS[:1], SWEEP_METHODS[:1]), store,
            executor="serial", artifact_dir=artifacts,
        )
        out.setup_s.append(time.perf_counter() - start)
        reference = report.records[0]
        references.add(_accuracy(reference))
    if len(references) != 1:
        out.fail("cold reference scenarios disagree across set-ups")
    warmed_kinds = _index_kinds(artifacts)

    rng = _seeded(ctx.seed, "warm_sweep")
    sweep = matrix(
        [SWEEP_BUDGETS[i] for i in rng.permutation(len(SWEEP_BUDGETS))],
        [SWEEP_METHODS[i] for i in rng.permutation(len(SWEEP_METHODS))],
    )
    total = len(sweep.expand())
    windows = Windows(ctx)
    seen: dict[str, tuple] = {}
    f1s: list[float] = []
    lookups = misses = scenarios = 0
    sweep_s = 0.0

    for _ in windows.schedule(SWEEP_MIN_SWEEPS):
        out.attempted += total
        store = ResultStore(ctx.fresh_dir("sweep-") / "store.jsonl")
        marks: list[float] = []
        start = time.perf_counter()
        try:
            report = windows.run(lambda: run_matrix(
                sweep, store, executor="serial", artifact_dir=artifacts,
                scenario_runner=matrix_mod.run_scenario,  # the traced one when traced
                on_result=lambda record: marks.append(time.perf_counter()),
            ), "sweep")
        except Exception as exc:  # noqa: BLE001 - the sweep stops at a failure
            out.fail(f"sweep raised {type(exc).__name__}: {exc}", total - len(marks))
            continue
        # One operation is one label budget's row of the grid (both methods,
        # as in a Table 2 row): scenario latencies alone are bimodal by
        # method, and their median would sit in the gap between the modes.
        row_ends = marks[len(SWEEP_METHODS) - 1 :: len(SWEEP_METHODS)]
        out.op_latencies.extend(np.diff([start] + row_ends).tolist())
        sweep_s += marks[-1] - start
        scenarios += len(marks)
        stats = report.artifacts["stats"]
        lookups += stats["lookups"]
        misses += stats["misses"]
        for record in report.records:
            key = _accuracy(record)
            if record["fingerprint"] == reference["fingerprint"] and key != _accuracy(reference):
                out.fail("store-served reference scenario differs from the cold reference")
            elif seen.setdefault(record["fingerprint"], key) != key:
                out.fail(f"scenario {record['fingerprint'][:12]} differs between sweeps")
            f1s.append(record["metrics"]["f1"])
    # Hermetic: every embedding lookup of the sweep is served from the store
    # (a miss would have stored a new embedding object).
    new_kinds = _index_kinds(artifacts)[len(warmed_kinds):]
    embedding_misses = sum(1 for k in new_kinds if k.startswith("embedding/"))
    if embedding_misses:
        out.fail(f"{embedding_misses} embeddings were trained during the sweep")
    out.f1 = statistics.fmean(f1s) if f1s else 0.0
    out.detail.update(
        scenarios_per_s=(scenarios / sweep_s if sweep_s else 0.0, "1/s"),
        artifact_hit_ratio=(1.0 - misses / lookups if lookups else 0.0, "ratio"),
    )
    windows.record(out)
    return out


# --------------------------------------------------------------------------- #
# serve_mixed
# --------------------------------------------------------------------------- #


@dataclass
class _Request:
    kind: str  # "detect" or "rescore"
    payload: object


class _Plan:
    """The shared, pre-generated request stream the clients pull from.

    Hands out requests until the run has lasted ``seconds`` with at least
    the minimum numbers of detects and rescores done, or the stream ends.
    """

    def __init__(self, requests: list[_Request], seconds: float):
        self._requests = requests
        self._next = 0
        self._lock = threading.Lock()
        self.seconds = seconds
        self.start = time.perf_counter()
        self.taken = {"detect": 0, "rescore": 0}

    def take(self) -> _Request | None:
        with self._lock:
            if self._next >= len(self._requests) or (
                time.perf_counter() - self.start >= self.seconds
                and self.taken["detect"] >= SERVE_MIN_DETECTS
                and self.taken["rescore"] >= SERVE_MIN_RESCORES
            ):
                return None
            request = self._requests[self._next]
            self._next += 1
            self.taken[request.kind] += 1
            return request


def serve_mixed(ctx: Context) -> Outcome:
    """A closed loop of client threads against an in-process server: small
    detects, with one in ten requests a rescore repairing a true error."""
    from repro import DetectorSpec, HoloDetect, load_dataset, make_split
    from repro.data.hospital import ATTRIBUTES
    from repro.errors.profiles import apply_profile, resolve_profile
    from repro.evaluation.metrics import evaluate_predictions
    from repro.persistence import load_detector, save_detector
    from repro.serving import ServeClient, ServeConfig
    from repro.serving.client import ServeClientError
    from repro.serving.testing import InProcessServer

    out = Outcome()
    # The generator leaves the blank filler columns uncorrupted; so does this.
    informative = tuple(a for a in ATTRIBUTES if a not in ("Address2", "Address3"))
    spec = DetectorSpec.default()
    fingerprint = spec.fingerprint()
    harness = None
    register_s: list[float] = []
    fit_s: list[float] = []

    async def tenant_session():
        session = harness.server.tenants[SERVE_TENANT].session
        return (list(session.predictions.cells), session.predictions.probabilities.copy(),
                session.rescored_cells, session.applied_edits)

    # Setup: fit, save, start the server and register the tenant.
    try:
        for _ in range(SETUP_REPEATS):
            if harness is not None:
                harness.stop()
            models = ctx.fresh_dir("serve-models-")
            start = time.perf_counter()
            bundle = apply_profile(
                load_dataset(DATASET, num_rows=SERVE_ROWS, seed=SERVE_DATA_SEED),
                resolve_profile("x-typos", error_rate=SERVE_ERROR_RATE,
                                attributes=informative),
                rng=SERVE_DATA_SEED,
            )
            split = make_split(bundle, TRAIN_FRACTION, rng=SERVE_DATA_SEED)
            fitted = time.perf_counter()
            detector = HoloDetect.from_spec(spec)
            detector.fit(bundle.dirty, split.training, bundle.constraints)
            fit_s.append(time.perf_counter() - fitted)
            save_detector(detector, models / "hospital")
            harness = InProcessServer(ServeConfig(
                model_root=models, artifact_root=ctx.fresh_dir("serve-artifacts-"),
            )).start()
            registered = time.perf_counter()
            ServeClient(harness.host, harness.port).detect(
                fingerprint, dataset=bundle.dirty, tenant=SERVE_TENANT, include_cells=False
            )
            done = time.perf_counter()
            register_s.append(done - registered)
            out.setup_s.append(done - start)
    except BaseException:
        if harness is not None:
            harness.stop()
        raise

    # The request stream, generated before timing: a seeded order of the
    # true-error cells (each repaired once, so the repairs commute) and
    # seeded 30-cell detect queries.
    rng = _seeded(ctx.seed, "serve_mixed")
    errors = sorted(bundle.error_cells, key=lambda c: (c.row, c.attr))
    errors = [errors[i] for i in rng.permutation(len(errors))]
    attributes = bundle.dirty.attributes
    requests = []
    for i in range(SERVE_RESCORE_EVERY * len(errors)):
        if i % SERVE_RESCORE_EVERY == SERVE_RESCORE_EVERY - 1:
            cell = errors[i // SERVE_RESCORE_EVERY]
            requests.append(_Request("rescore", (cell, bundle.clean.value(cell))))
        else:
            rows = rng.integers(0, bundle.dirty.num_rows, SERVE_CELLS_PER_DETECT)
            cols = rng.integers(0, len(attributes), SERVE_CELLS_PER_DETECT)
            requests.append(_Request(
                "detect", [(int(r), attributes[c]) for r, c in zip(rows, cols)]
            ))

    applied: dict = {}
    lock = threading.Lock()

    def send(client, request: _Request) -> object:
        """One request; returns ``None`` on success, else the problem."""
        try:
            if request.kind == "detect":
                response = client.detect(tenant=SERVE_TENANT, cells=request.payload)
                if len(response["report"]["cells"]) != SERVE_CELLS_PER_DETECT:
                    return "wrong number of cells in the answer"
                return None
            cell, value = request.payload
            response = client.rescore(SERVE_TENANT, {cell: value}, include_cells=False)
            if response["applied_edits"] != 1:
                return f"repair of {cell} was not applied"
            with lock:
                applied[cell] = value
            return None
        except (ServeClientError, OSError) as exc:
            return exc

    def client_loop(plan: _Plan, record: list) -> None:
        client = ServeClient(harness.host, harness.port)
        while (request := plan.take()) is not None:
            started = time.perf_counter()
            with ctx.op_span(request.kind):
                problem = send(client, request)
            elapsed = time.perf_counter() - started
            with lock:
                record.append((request.kind, elapsed, problem))

    def closed_loop() -> list:
        plan = _Plan(requests, ctx.seconds)
        record: list = []
        threads = [
            threading.Thread(target=client_loop, args=(plan, record),
                             name=f"serve-client-{k}")
            for k in range(SERVE_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=150)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("client threads did not finish")
        return record

    windows = Windows(ctx)
    latencies: dict[str, list[float]] = {"detect": [], "rescore": []}
    try:
        cells, probabilities, _, _ = harness.submit(tenant_session())
        by_cell = dict(zip(cells, probabilities))
        flagged = {c for c in split.test_cells if by_cell[c] >= 0.5}
        out.f1 = evaluate_predictions(flagged, bundle.error_cells, split.test_cells).f1

        before = harness.server.batcher.stats.as_dict()
        start = time.perf_counter()
        record = windows.run(closed_loop)
        loop_s = time.perf_counter() - start
        after = harness.server.batcher.stats.as_dict()
        for kind, elapsed, problem in record:
            out.attempted += 1
            if problem is not None:
                out.fail(f"{kind} request failed: {problem!r}")
                continue
            out.op_latencies.append(elapsed)
            latencies[kind].append(elapsed)
        requests_batched = after["requests"] - before["requests"]
        out.layer_extras.update({
            "serving.batches": after["batches"] - before["batches"],
            "serving.max_batch_cells": after["max_batch_cells"],
            "serving.coalesced_ratio": (
                (after["coalesced_requests"] - before["coalesced_requests"])
                / requests_batched if requests_batched else 0.0
            ),
            "serving.register_s": statistics.median(register_s),
        })
        # Correctness: the tenant's live predictions must equal a freshly
        # loaded detector's full prediction on the relation with the same
        # repairs applied.
        cells, probabilities, rescored, edits = harness.submit(tenant_session())
        out.layer_extras["core.rescored_per_edit"] = rescored / edits if edits else 0.0
    finally:
        harness.stop()
    relation = bundle.dirty.copy()
    relation.apply_edits(applied)
    expected = load_detector(models / "hospital", relation).predict(cells).probabilities
    if not np.array_equal(expected, probabilities):
        out.fail("served predictions differ from a direct detector with the same edits")

    detect, rescore = latencies["detect"], latencies["rescore"]
    if len(detect) < SERVE_MIN_DETECTS or len(rescore) < SERVE_MIN_RESCORES:
        out.fail(f"only {len(detect)} detects and {len(rescore)} rescores succeeded", 0)
    if detect and rescore:
        out.detail.update(
            detect_p50_ms=(1e3 * statistics.median(detect), "ms"),
            detect_p99_ms=(1e3 * percentile(detect, 99), "ms"),
            rescore_p50_ms=(1e3 * statistics.median(rescore), "ms"),
            rescore_p90_ms=(1e3 * percentile(rescore, 90), "ms"),
            requests_per_s=(len(out.op_latencies) / loop_s, "1/s"),
        )
    out.detail.update(
        error_rate=(out.failed / out.attempted if out.attempted else 0.0, "ratio"),
        detects=(len(detect), "count"),
        rescores=(len(rescore), "count"),
        fit_s=(statistics.median(fit_s), "s"),
    )
    windows.record(out)
    return out


WORKLOADS: dict[str, Callable[[Context], Outcome]] = {
    "cold_fit": cold_fit,
    "warm_sweep": warm_sweep,
    "serve_mixed": serve_mixed,
}
