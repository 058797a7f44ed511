"""Command-line interface.

Ten subcommands::

    python -m repro detect    --input data.csv --labels labels.csv ...
    python -m repro rescore   --input data.csv --labels labels.csv --edits edits.csv ...
    python -m repro benchmark --dataset hospital --rows 300
    python -m repro sweep     --spec sweep.toml --workers 4 --store results.jsonl --resume
    python -m repro report    --store results.jsonl --spec sweep.toml
    python -m repro spec      validate detector.toml   (or: describe)
    python -m repro serve     --models models/ --port 8765
    python -m repro client    detect --fingerprint ab12cd --input data.csv --tenant acme
    python -m repro policy    --input data.csv --labels labels.csv --value "60612"
    python -m repro shard     convert --input big.csv --out big-shards/   (or: info, verify)

``detect`` runs the full detector on a CSV and writes a triage CSV of
per-cell error probabilities (``--json`` additionally writes a
machine-readable ``repro.detect/v1`` report).  ``rescore`` drives the
interactive repair loop incrementally: it applies a batch of cell edits
through a :class:`~repro.core.detector.DetectionSession` and re-scores only
the affected cells instead of re-predicting the whole relation.
``benchmark`` evaluates the detector on one of the built-in benchmark
bundles.  ``sweep`` expands a declarative scenario matrix (datasets × error
profiles × label budgets × methods) and executes it on a worker pool with a
resumable on-disk result store; with ``--coordinate``, N invocations on
hosts sharing a filesystem drain one matrix cooperatively through lease
files (:mod:`repro.coordination`).  ``report`` renders a live
markdown/JSON dashboard — per-axis progress, in-flight leases, ETA — from
a store other workers are still filling (see ``docs/architecture.md``).
``spec``
validates and pretty-prints declarative detector specs
(``repro.spec/v1``; see :mod:`repro.spec`) — ``detect`` and ``benchmark``
accept one via ``--spec``, and model flags passed with it override its
``[detector]`` keys.
``serve`` runs the long-lived multi-tenant detection server over a
directory of saved models, routing requests by spec fingerprint (see
:mod:`repro.serving`); ``client`` drives a running server (score a CSV,
apply repairs through the server-side session, health/registry/evict).
``policy`` prints the learned noisy channel's conditional distribution for
a probe value.  ``shard`` manages out-of-core shard directories
(:mod:`repro.dataset.sharded`): ``convert`` streams a CSV into
memory-mapped shards at bounded memory, ``info`` prints the manifest
summary, and ``verify`` recomputes every shard digest.

Input files are parsed by the layers that own their types (see "Where each
input format is parsed" in ``docs/architecture.md``); :func:`_read` turns a
reader's ``ValueError``, which names ``path:line``, into a one-line exit.
Every detector is built from a spec — ``--spec`` or the default — with the
passed model flags as ``[detector]`` overrides, so every save is servable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path

from repro.augmentation.naive_bayes import channel_examples
from repro.augmentation.policy import Policy
from repro.constraints.dc import read_constraints
from repro.core.detector import DetectionSession, ErrorPredictions, HoloDetect
from repro.dataset.loader import read_csv, read_edit_rows, read_edits, read_labels
from repro.dataset.table import Dataset
from repro.dataset.training import TrainingSet
from repro.serving.reports import report_triage_rows, triage_rows, write_triage_csv
from repro.spec import DetectorSpec, SpecError

#: ``DetectorConfig`` fields settable by model flags (each flag's ``dest``).
#: A flag left unset stays ``None`` and leaves the spec's value alone.
_MODEL_FLAGS = ("epochs", "embedding_dim", "seed", "augment", "prediction_batch")

#: ``ServeConfig`` fields settable by ``repro serve`` flags, the same way:
#: a flag left unset keeps the ``ServeConfig`` default.
_SERVE_FLAGS = (
    "host", "capacity", "max_body", "read_timeout", "batch_window",
    "max_batch_cells", "max_inflight", "breaker_threshold", "breaker_cooldown",
)


def _read(reader, *args, **kwargs):
    """Run an input reader (a file, a saved model, a built-in bundle or
    its split); a missing or malformed input ends the command with its
    one-line message instead of a traceback."""
    try:
        return reader(*args, **kwargs)
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc)) from exc


def _read_training(path: str, dataset: Dataset) -> TrainingSet:
    """The labels a fit trains on; a labels file with no label lines ends
    the command in one line instead of a traceback from the fit."""
    training = _read(read_labels, path, dataset)
    if not len(training):
        raise SystemExit(f"{path}: no labels below the header; a fit needs at least one")
    return training


def _fit(
    detector: HoloDetect, source: str, dataset: Dataset,
    training: TrainingSet, constraints: list,
) -> None:
    """Fit ``detector`` on ``training`` (read from ``source``, a labels file
    or a named split); when its holdout split would hold out every label,
    or its configuration leaves no representation model for these inputs,
    end the command in one line instead of letting the fit raise a
    traceback."""
    fraction = detector.config.holdout_fraction
    if training.holdout_size(fraction) == len(training):
        raise SystemExit(
            f"{source}: holdout_fraction {fraction} holds out all "
            f"{len(training)} labels, leaving none to train on"
        )
    try:
        detector.fit(dataset, training, constraints)
    except SpecError as exc:
        raise SystemExit(f"invalid detector configuration: {exc}") from exc


def _check_outputs(*paths: str | None) -> None:
    """End the command in one line when an output file's directory is
    missing or unwritable, before any input is read or any model fitted."""
    for path in paths:
        if path is None:
            continue
        parent = Path(path).parent
        if not parent.is_dir():
            raise SystemExit(f"cannot write {path}: no directory {parent}")
        if not os.access(parent, os.W_OK):
            raise SystemExit(f"cannot write {path}: directory {parent} is not writable")


def _check_threshold(threshold: float | None) -> None:
    """End the command in one line when ``--threshold`` is not a finite
    number (``nan``, ``inf``, ``1e400``): it would flag nothing, and the
    JSON report could not carry it."""
    if threshold is not None and not math.isfinite(threshold):
        raise SystemExit(f"--threshold must be a finite number, got {threshold}")


def _build_detector(args: argparse.Namespace) -> HoloDetect:
    """The detector for ``detect``/``rescore``/``benchmark``: ``--spec`` (or
    the default spec) with the passed model flags as ``[detector]``
    overrides; ``--artifacts`` wins over the spec's ``[artifacts]`` table."""
    spec = DetectorSpec.default()
    if getattr(args, "spec", None):
        try:
            spec = DetectorSpec.from_file(args.spec)
        except SpecError as exc:
            raise SystemExit(f"detector spec error: {exc}") from exc
    overrides = {k: getattr(args, k) for k in _MODEL_FLAGS if getattr(args, k) is not None}
    spec = dataclasses.replace(spec, detector={**dict(spec.detector), **overrides})
    try:
        detector = HoloDetect.from_spec(spec)
    except SpecError as exc:
        raise SystemExit(f"invalid detector configuration: {exc}") from exc
    if getattr(args, "spec", None):
        print(f"spec: {args.spec} (fingerprint {spec.fingerprint()[:12]})", file=sys.stderr)
    if args.artifacts:
        # In the config, not the spec: saves reattach the store as they
        # always did, and the fingerprint never sees where it lives.
        detector.config.artifact_dir = args.artifacts
        detector.use_artifacts(args.artifacts)
    return detector


def _write_detect_json(
    path: str | Path,
    args: argparse.Namespace,
    dataset: Dataset,
    detector: HoloDetect,
    predictions: ErrorPredictions,
) -> None:
    """The machine-readable ``repro.detect/v1`` companion of the triage CSV.

    One report builder feeds both this file and the serving layer's
    ``POST /v1/detect`` responses (:mod:`repro.serving.reports`), so the two
    outputs cannot drift; the CLI only adds its file-path context.
    """
    from repro.serving.reports import build_detect_report

    payload = build_detect_report(
        dataset, predictions, args.threshold, detector=detector
    )
    payload["input"] = str(args.input)
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def cmd_detect(args: argparse.Namespace) -> int:
    _check_threshold(args.threshold)
    _check_outputs(args.output, args.json)
    dataset = _read(read_csv, args.input)
    training = _read_training(args.labels, dataset)
    constraints = _read(read_constraints, args.constraints) if args.constraints else []
    print(
        f"dataset: {dataset.num_rows} rows x {len(dataset.attributes)} attrs; "
        f"{len(training)} labels ({len(training.errors)} errors); "
        f"{len(constraints)} constraints",
        file=sys.stderr,
    )
    detector = _build_detector(args)
    _fit(detector, args.labels, dataset, training, constraints)
    if detector.policy is not None:
        print(
            f"learned {len(detector.policy)} transformations; "
            f"generated {detector.augmented_count} synthetic errors",
            file=sys.stderr,
        )
    predictions = detector.predict()
    flagged = write_triage_csv(
        args.output, triage_rows(dataset, predictions, args.threshold)
    )
    print(f"wrote {args.output}: {flagged} cells flagged", file=sys.stderr)
    if args.json:
        _write_detect_json(args.json, args, dataset, detector, predictions)
        print(f"wrote {args.json}", file=sys.stderr)
    if detector.artifact_stats is not None:
        print(f"artifact store: {detector.artifact_stats.summary()}", file=sys.stderr)
    if args.save_model:
        from repro.persistence import save_detector

        save_detector(detector, args.save_model)
        print(f"saved model to {args.save_model}", file=sys.stderr)
    return 0


def cmd_rescore(args: argparse.Namespace) -> int:
    _check_threshold(args.threshold)
    _check_outputs(args.output)
    dataset = _read(read_csv, args.input)
    edits = _read(read_edits, args.edits, dataset)  # before any fit: fail fast
    if args.model:
        from repro.persistence import load_detector

        detector = _read(load_detector, args.model, dataset)
        if args.artifacts:
            detector.use_artifacts(args.artifacts)
        print(f"loaded model from {args.model}", file=sys.stderr)
    elif args.labels:
        training = _read_training(args.labels, dataset)
        constraints = _read(read_constraints, args.constraints) if args.constraints else []
        detector = _build_detector(args)
        _fit(detector, args.labels, dataset, training, constraints)
    else:
        raise SystemExit("rescore needs --model (saved detector) or --labels (fit fresh)")
    # The session needs a baseline scoring of the pre-edit relation; within
    # one process every further apply() is then proportional to the edit.
    started = time.perf_counter()
    session = DetectionSession(detector)
    baseline_elapsed = time.perf_counter() - started
    print(
        f"initial full pass: {len(session.predictions.cells)} cells "
        f"in {baseline_elapsed:.3f}s",
        file=sys.stderr,
    )
    started = time.perf_counter()
    predictions = session.apply(edits, refresh=args.refresh)
    elapsed = time.perf_counter() - started
    print(
        f"applied {len(edits)} edits "
        f"({len(session.last_delta.cells)} effective, "
        f"{len(session.last_delta.columns)} columns, "
        f"{len(session.last_delta.rows)} rows); "
        f"incremental re-score of {session.rescored_cells} cells "
        f"in {elapsed:.3f}s",
        file=sys.stderr,
    )
    flagged = write_triage_csv(
        args.output, triage_rows(dataset, predictions, args.threshold)
    )
    print(f"wrote {args.output}: {flagged} cells flagged", file=sys.stderr)
    if detector.artifact_stats is not None:
        print(f"artifact store: {detector.artifact_stats.summary()}", file=sys.stderr)
    return 0


def cmd_benchmark(args: argparse.Namespace) -> int:
    from repro.data import load_dataset
    from repro.evaluation import evaluate_predictions, make_split

    seed = 0 if args.seed is None else args.seed  # --seed also draws the data
    bundle = _read(load_dataset, args.dataset, num_rows=args.rows, seed=seed)
    split = _read(make_split, bundle, args.training_fraction, rng=seed)
    detector = _build_detector(args)

    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    source = f"{args.dataset} split (--training-fraction {args.training_fraction})"
    _fit(detector, source, bundle.dirty, split.training, bundle.constraints)
    flagged = detector.predict_error_cells(split.test_cells)
    if profiler is not None:
        profiler.disable()
        profiler.dump_stats(args.profile)
        print(
            f"wrote {args.profile} (inspect with: python -m pstats {args.profile})",
            file=sys.stderr,
        )
    metrics = evaluate_predictions(
        flagged,
        bundle.error_cells,
        split.test_cells,
    )
    if detector.timings:
        stages = "  ".join(
            f"{stage}={seconds:.3f}s"
            for stage, seconds in sorted(detector.timings.items())
        )
        print(f"timings: {stages}", file=sys.stderr)
    print(f"{args.dataset}: P={metrics.precision:.3f} R={metrics.recall:.3f} F1={metrics.f1:.3f}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.coordination import CoordinationError
    from repro.evaluation.matrix import (
        CoordinateOptions,
        MatrixSpecError,
        ScenarioMatrix,
        run_matrix,
    )
    from repro.evaluation.store import ResultStore

    try:
        matrix = ScenarioMatrix.from_file(args.spec)
    except MatrixSpecError as exc:
        raise SystemExit(f"sweep spec error: {exc}") from exc
    if not args.coordinate:
        for flag, default in (("worker_id", None), ("lease_ttl", None)):
            if getattr(args, flag) is not None:
                raise SystemExit(
                    f"--{flag.replace('_', '-')} only applies with --coordinate"
                )
    if args.compact and not args.store:
        raise SystemExit("--compact requires --store (there is nothing to compact)")
    coordinate = None
    if args.coordinate:
        if not args.store:
            raise SystemExit(
                "--coordinate requires --store: the store is the shared "
                "completion ledger all workers drain against"
            )
        coordinate = CoordinateOptions(
            worker_id=args.worker_id,
            ttl=args.lease_ttl if args.lease_ttl is not None else 60.0,
        )
    store = None
    if args.store:
        store_path = Path(args.store)
        # --coordinate implies resume: cooperating workers share one store,
        # so "already exists" is the normal case, not a mistake.
        if store_path.exists() and not args.resume and not args.coordinate:
            raise SystemExit(
                f"{store_path} already exists; pass --resume to serve completed "
                "scenarios from it, or remove it for a fresh sweep"
            )
        store = ResultStore(store_path)
        if store.skipped_lines:
            print(
                f"store: skipped {store.skipped_lines} unparseable line(s) "
                "(tail of a killed run?)",
                file=sys.stderr,
            )
    elif args.resume:
        raise SystemExit("--resume requires --store (there is nothing to resume from)")

    total = len(matrix.expand())
    done = 0

    def progress(record: dict) -> None:
        nonlocal done
        done += 1
        spec = record["spec"]
        if record.get("remote"):
            source = "remote"
        elif record.get("cached"):
            source = "cached"
        else:
            source = "run"
        print(
            f"[{done}/{total}] {spec['dataset']}/{spec['error_profile']}"
            f"/{spec['label_budget']:g}/{spec['method']}: "
            f"F1={record['metrics']['f1']:.3f} ({source})",
            file=sys.stderr,
        )

    started = time.perf_counter()
    try:
        report = run_matrix(
            matrix,
            store=store,
            workers=args.workers,
            resume=args.resume,
            on_result=progress,
            artifact_dir=args.artifacts,
            coordinate=coordinate,
        )
    except CoordinationError as exc:
        raise SystemExit(f"sweep coordination error: {exc}") from exc
    elapsed = time.perf_counter() - started
    print(report.table())
    print(
        f"sweep: {report.total} scenarios ({report.executed} run, "
        f"{report.cached} cached) with {report.workers} worker(s) in {elapsed:.1f}s",
        file=sys.stderr,
    )
    if report.artifacts is not None:
        stats = report.artifacts["stats"]
        print(
            f"artifact store {report.artifacts['dir']}: "
            f"{stats.get('hits', 0)} hits / {stats.get('lookups', 0)} lookups, "
            f"{stats.get('puts', 0)} stored",
            file=sys.stderr,
        )
    if report.coordination is not None:
        coord = report.coordination
        print(
            f"coordination {coord['dir']}: worker {coord['worker']} executed "
            f"{coord['executed']}, peers contributed {coord['remote']} "
            f"({coord['initially_cached']} already stored)",
            file=sys.stderr,
        )
    if args.compact and store is not None:
        kept, dropped = store.compact()
        print(
            f"compacted {store.path}: kept {kept} record(s), "
            f"dropped {dropped} superseded line(s)",
            file=sys.stderr,
        )
    if args.report:
        payload = report.to_json()
        payload["spec_file"] = str(args.spec)
        payload["wall_time"] = elapsed
        Path(args.report).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.report}", file=sys.stderr)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Render the live sweep dashboard (``repro.report/v1``).

    Read-only: safe to run against a store other hosts are appending to
    right now — that is the point (observing a cooperative sweep's health
    while it runs).
    """
    from repro.coordination import build_report, coordination_dir, render_markdown
    from repro.evaluation.matrix import MatrixSpecError, ScenarioMatrix
    from repro.evaluation.store import ResultStore

    store_path = Path(args.store)
    if not store_path.exists() and not args.spec:
        raise SystemExit(
            f"{store_path} does not exist; pass --spec to report on a sweep "
            "that has not produced results yet"
        )
    store = ResultStore(store_path)
    matrix = None
    if args.spec:
        try:
            matrix = ScenarioMatrix.from_file(args.spec)
        except MatrixSpecError as exc:
            raise SystemExit(f"sweep spec error: {exc}") from exc
    leases = args.leases
    if leases is None:
        default_dir = coordination_dir(store_path)
        if default_dir.is_dir():
            leases = default_dir
    payload = build_report(
        store, matrix=matrix, coordination=leases, ttl=args.lease_ttl
    )
    print(render_markdown(payload), end="")
    if args.json:
        Path(args.json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


def cmd_spec(args: argparse.Namespace) -> int:
    try:
        spec = DetectorSpec.from_file(args.file)
    except SpecError as exc:
        raise SystemExit(f"detector spec error: {exc}") from exc
    if args.action == "validate":
        featurizers = (
            "default pipeline"
            if spec.featurizers is None
            else f"{len(spec.featurizers)} featurizer(s)"
        )
        print(
            f"{args.file}: valid repro.spec/v1 "
            f"({featurizers}, policy={spec.policy[0]}, "
            f"calibrator={spec.calibrator[0]})"
        )
        print(f"fingerprint: {spec.fingerprint()}")
    else:  # describe
        print(spec.describe())
    return 0


def _serve_config(args: argparse.Namespace):
    """The ``repro serve`` :class:`~repro.serving.server.ServeConfig`:
    ``--models``, ``--port`` and ``--artifacts`` plus the passed flags."""
    from repro.serving.server import ServeConfig

    overrides = {k: getattr(args, k) for k in _SERVE_FLAGS if getattr(args, k) is not None}
    return ServeConfig(
        model_root=args.models, port=args.port, artifact_root=args.artifacts, **overrides
    )


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serving.server import DetectionServer

    try:
        config = _serve_config(args)
        # The registry and the batcher check capacity and batching bounds.
        server = DetectionServer(config)
    except ValueError as exc:
        raise SystemExit(f"invalid server configuration: {exc}") from exc
    fingerprints = server.registry.fingerprints
    if not fingerprints:
        print(
            f"warning: no servable models under {args.models} "
            "(save one with: repro detect ... --save-model DIR)",
            file=sys.stderr,
        )

    async def run() -> None:
        await server.start()
        print(
            f"serving {len(fingerprints)} model(s) on "
            f"http://{config.host}:{server.port} "
            f"(registry capacity {config.capacity}, "
            f"batch window {config.batch_window * 1000:.1f}ms)",
            file=sys.stderr,
        )
        for fingerprint in fingerprints:
            print(f"  {fingerprint[:12]}  {server.registry.path_of(fingerprint)}",
                  file=sys.stderr)
        await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


def cmd_client(args: argparse.Namespace) -> int:
    from repro.serving.client import ServeClient, ServeClientError

    _check_threshold(args.threshold)
    client = ServeClient(args.host, args.port)
    try:
        return _run_client_action(args, client)
    except ServeClientError as exc:
        raise SystemExit(f"server error: {exc}") from exc
    except (ConnectionError, OSError) as exc:
        raise SystemExit(
            f"cannot reach server at {args.host}:{args.port}: {exc}"
        ) from exc


def _run_client_action(args: argparse.Namespace, client) -> int:
    if args.action == "health":
        print(json.dumps(client.health(), indent=2, sort_keys=True))
        return 0
    if args.action == "registry":
        print(json.dumps(client.registry(), indent=2, sort_keys=True))
        return 0
    if args.action == "evict":
        if not args.fingerprint and not args.tenant:
            raise SystemExit("client evict needs --fingerprint and/or --tenant")
        response = client.evict(fingerprint=args.fingerprint, tenant=args.tenant)
        print(json.dumps(response, indent=2, sort_keys=True))
        return 0
    if args.action == "detect":
        if not args.input:
            raise SystemExit("client detect needs --input")
        if not args.fingerprint and not args.tenant:
            raise SystemExit("client detect needs --fingerprint (or a registered --tenant)")
        dataset = _read(read_csv, args.input)
        response = client.detect(
            args.fingerprint or None,
            dataset=dataset,
            tenant=args.tenant,
            threshold=args.threshold,
        )
    elif args.action == "rescore":
        if not args.tenant:
            raise SystemExit("client rescore needs --tenant")
        if not args.edits:
            raise SystemExit("client rescore needs --edits")
        edits = [
            {"row": row, "attribute": attr, "value": value}
            for row, attr, value in _read(read_edit_rows, args.edits)
        ]
        response = client.rescore(
            args.tenant, edits, refresh=args.refresh, threshold=args.threshold
        )
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown client action {args.action!r}")

    report = response.get("report", {})
    print(
        f"{args.action}: {report.get('scored_cells', 0)} cells scored, "
        f"{report.get('flagged_cells', 0)} flagged "
        f"(fingerprint {str(response.get('fingerprint'))[:12]})",
        file=sys.stderr,
    )
    if args.action == "rescore":
        print(
            f"applied {response.get('applied_edits', 0)} edits; "
            f"re-scored {response.get('rescored_cells', 0)} cells",
            file=sys.stderr,
        )
    if args.output:
        write_triage_csv(args.output, report_triage_rows(report))
        print(f"wrote {args.output}", file=sys.stderr)
    if args.json:
        Path(args.json).write_text(
            json.dumps(response, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


def cmd_policy(args: argparse.Namespace) -> int:
    dataset = _read(read_csv, args.input)
    training = _read(read_labels, args.labels, dataset)
    if not training.errors:
        print("no labelled errors: learning from weak supervision", file=sys.stderr)
    pairs = channel_examples(dataset, training, min_error_pairs=1, max_cells=None)
    policy = Policy.learn(pairs)
    try:
        entries = policy.top_k(args.value, args.top)
    except ValueError as exc:
        raise SystemExit(f"--top: {exc}") from exc
    print(f"{len(policy)} transformations learned from {len(pairs)} example pairs")
    for transformation, probability in entries:
        print(f"  {probability:6.4f}  {transformation}")
    return 0


def cmd_shard(args: argparse.Namespace) -> int:
    from repro.dataset.sharded import ShardedDataset

    if args.shard_command == "convert":
        sharded = _read(
            ShardedDataset.from_csv,
            args.input,
            args.out,
            shard_rows=args.rows_per_shard,
            force=args.force,
        )
        print(
            f"wrote {sharded.num_rows} rows x {len(sharded.attributes)} "
            f"attributes into {sharded.num_shards} shards at {args.out}"
        )
        print(f"fingerprint: {sharded.fingerprint()}")
        return 0
    sharded = _read(ShardedDataset, args.dir)
    if args.shard_command == "info":
        info = {
            "dir": str(args.dir),
            "rows": sharded.num_rows,
            "attributes": list(sharded.attributes),
            "shards": sharded.num_shards,
            "fingerprint": sharded.fingerprint(),
            "inmemory_bytes": sharded.inmemory_bytes,
        }
        print(json.dumps(info, indent=2))
        return 0
    # verify: recompute every per-shard column digest against the manifest.
    try:
        sharded.verify()
    except ValueError as exc:
        raise SystemExit(f"FAILED: {exc}") from exc
    print(
        f"ok: {sharded.num_shards} shards, {sharded.num_rows} rows, "
        f"fingerprint {sharded.fingerprint()}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro", description="HoloDetect few-shot error detection"
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_args(p: argparse.ArgumentParser) -> None:
        # Unset flags stay None: only the flags a user passes override the
        # spec's [detector] keys (defaults shown are the default spec's).
        p.add_argument("--epochs", type=int, help="training epochs (default 40)")
        p.add_argument("--embedding-dim", type=int, help="embedding width (default 16)")
        p.add_argument("--seed", type=int, help="random seed (default 0)")
        p.add_argument(
            "--no-augment", action="store_false", dest="augment", default=None,
            help="disable data augmentation (SuperL mode)",
        )
        p.add_argument(
            "--prediction-batch",
            type=int,
            help="cells featurised per prediction chunk (default 512)",
        )
        p.add_argument(
            "--artifacts",
            metavar="DIR",
            help="fitted-artifact store directory: reuse trained embeddings "
            "and fitted featurizer states across runs (see docs/architecture.md)",
        )

    detect = sub.add_parser("detect", help="detect errors in a CSV")
    detect.add_argument("--input", required=True, help="input CSV (header row required)")
    detect.add_argument("--labels", required=True, help="labels CSV (row,attribute,true_value)")
    detect.add_argument("--constraints", help="denial constraints file (optional)")
    detect.add_argument("--output", required=True, help="output triage CSV")
    detect.add_argument("--threshold", type=float, default=0.5, help="flagging threshold")
    detect.add_argument(
        "--save-model",
        help="directory to save the fitted detector (servable by 'repro serve')",
    )
    detect.add_argument(
        "--spec",
        help="declarative detector spec (repro.spec/v1 .toml/.json); model "
        "flags passed with it override its [detector] keys",
    )
    detect.add_argument(
        "--json", help="also write a machine-readable repro.detect/v1 JSON report"
    )
    add_model_args(detect)
    detect.set_defaults(func=cmd_detect)

    rescore = sub.add_parser(
        "rescore", help="apply cell repairs and incrementally re-score"
    )
    rescore.add_argument("--input", required=True, help="input CSV (header row required)")
    rescore.add_argument("--edits", required=True, help="edits CSV (row,attribute,value)")
    rescore.add_argument("--output", required=True, help="output triage CSV")
    rescore.add_argument("--labels", help="labels CSV to fit a fresh detector")
    rescore.add_argument("--model", help="directory of a saved detector (skips fitting)")
    rescore.add_argument("--constraints", help="denial constraints file (optional)")
    rescore.add_argument("--threshold", type=float, default=0.5, help="flagging threshold")
    rescore.add_argument(
        "--refresh",
        action="store_true",
        help="also refit representation models dirtied by the edits",
    )
    add_model_args(rescore)
    rescore.set_defaults(func=cmd_rescore)

    bench = sub.add_parser("benchmark", help="evaluate on a built-in benchmark")
    bench.add_argument("--dataset", default="hospital", help="benchmark name")
    bench.add_argument("--rows", type=int, default=300, help="dataset scale")
    bench.add_argument(
        "--training-fraction", type=float, default=0.1, help="fraction of tuples labelled"
    )
    bench.add_argument(
        "--spec",
        help="declarative detector spec (repro.spec/v1 .toml/.json); model "
        "flags passed with it override its [detector] keys",
    )
    bench.add_argument(
        "--profile",
        metavar="FILE",
        help="profile fit+predict with cProfile and write the pstats dump here",
    )
    add_model_args(bench)
    bench.set_defaults(func=cmd_benchmark)

    sweep = sub.add_parser("sweep", help="run a declarative scenario-matrix sweep")
    sweep.add_argument("--spec", required=True, help="matrix spec file (.toml or .json)")
    sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallel workers, clamped to the pending-scenario count: one "
        "runs scenarios inline, more run them on a process pool",
    )
    sweep.add_argument("--store", help="resumable JSONL result store path")
    sweep.add_argument(
        "--artifacts",
        metavar="DIR",
        help="shared fitted-artifact store directory: workers reuse one "
        "embedding/featurizer fit per (data, config) instead of one per scenario",
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help="serve scenarios already in --store from disk; run only the missing ones",
    )
    sweep.add_argument(
        "--coordinate",
        action="store_true",
        help="cooperatively drain the matrix with other 'repro sweep "
        "--coordinate' processes (possibly on other hosts) sharing --store: "
        "scenarios are claimed via lease files in <store>.coord/ (implies "
        "--resume)",
    )
    sweep.add_argument(
        "--worker-id",
        help="worker name in leases and the audit log "
        "(default: <hostname>-<pid>; requires --coordinate)",
    )
    sweep.add_argument(
        "--lease-ttl",
        type=float,
        help="seconds without a heartbeat before another worker may reclaim "
        "a lease (default: 60; requires --coordinate)",
    )
    sweep.add_argument(
        "--compact",
        action="store_true",
        help="after the sweep, rewrite --store keeping only latest-wins "
        "records (long cooperative sweeps grow the append-only log unboundedly)",
    )
    sweep.add_argument("--report", help="write the full sweep summary as JSON")
    sweep.set_defaults(func=cmd_sweep)

    report = sub.add_parser(
        "report",
        help="render a live dashboard from a (partially filled) sweep store",
    )
    report.add_argument("--store", required=True, help="sweep result store (JSONL)")
    report.add_argument(
        "--spec",
        help="matrix spec file: adds grid totals, per-axis progress, and ETA "
        "for scenarios not yet run",
    )
    report.add_argument(
        "--leases",
        help="coordination directory with live leases "
        "(default: <store>.coord when it exists)",
    )
    report.add_argument(
        "--lease-ttl",
        type=float,
        default=60.0,
        help="TTL used to label in-flight leases as stale (default: 60)",
    )
    report.add_argument("--json", help="write the repro.report/v1 payload here")
    report.set_defaults(func=cmd_report)

    spec = sub.add_parser(
        "spec", help="validate / describe a declarative detector spec"
    )
    spec.add_argument(
        "action", choices=("validate", "describe"), help="what to do with the spec"
    )
    spec.add_argument("file", help="detector spec file (repro.spec/v1 .toml/.json)")
    spec.set_defaults(func=cmd_spec)

    serve = sub.add_parser(
        "serve", help="run the multi-tenant detection server over saved models"
    )
    serve.add_argument(
        "--models", required=True,
        help="model root: a directory of saved detectors (repro detect --save-model)",
    )
    # Unset tuning flags stay None and keep ServeConfig's defaults.  The
    # port is the exception: ServeConfig's 0 means an ephemeral port.
    serve.add_argument("--host", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8765, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--capacity", type=int,
        help="hot-registry LRU capacity (loaded detectors kept in memory)",
    )
    serve.add_argument(
        "--artifacts", metavar="DIR",
        help="root for per-tenant fitted-artifact stores (<DIR>/tenants/<name>)",
    )
    serve.add_argument(
        "--max-body", type=int,
        help="reject request bodies larger than this many bytes",
    )
    serve.add_argument(
        "--read-timeout", type=float,
        help="seconds before a slow client is timed out",
    )
    serve.add_argument(
        "--batch-window", type=float,
        help="seconds a lone detect waits for others to coalesce with "
        "(bounds every batch's wait)",
    )
    serve.add_argument(
        "--max-batch-cells", type=int,
        help="bound on one coalesced scoring pass, in cells",
    )
    serve.add_argument(
        "--max-inflight", type=int,
        help="shed connections with a 503 beyond this many in flight",
    )
    serve.add_argument(
        "--breaker-threshold", type=int,
        help="consecutive model-load failures that open a fingerprint's circuit",
    )
    serve.add_argument(
        "--breaker-cooldown", type=float,
        help="seconds an open circuit fast-fails before admitting a probe load",
    )
    serve.set_defaults(func=cmd_serve)

    client = sub.add_parser(
        "client", help="drive a running detection server (repro serve)"
    )
    client.add_argument(
        "action",
        choices=("detect", "rescore", "health", "registry", "evict"),
        help="what to ask the server",
    )
    client.add_argument("--host", default="127.0.0.1", help="server address")
    client.add_argument("--port", type=int, default=8765, help="server port")
    client.add_argument(
        "--fingerprint", help="spec fingerprint of the detector (prefix ok)"
    )
    client.add_argument(
        "--tenant", help="tenant name (registers/uses a server-side session)"
    )
    client.add_argument("--input", help="input CSV to score (detect)")
    client.add_argument("--edits", help="edits CSV row,attribute,value (rescore)")
    client.add_argument(
        "--refresh", action="store_true",
        help="also refit representation models dirtied by the edits (rescore)",
    )
    client.add_argument(
        "--threshold", type=float, default=None, help="flagging threshold"
    )
    client.add_argument("--output", help="write the served triage CSV here")
    client.add_argument("--json", help="write the full wire response as JSON")
    client.set_defaults(func=cmd_client)

    policy = sub.add_parser("policy", help="inspect the learned noisy channel")
    policy.add_argument("--input", required=True, help="input CSV")
    policy.add_argument("--labels", required=True, help="labels CSV")
    policy.add_argument("--value", required=True, help="probe value for the conditional")
    policy.add_argument("--top", type=int, default=10, help="entries to print")
    policy.set_defaults(func=cmd_policy)

    shard = sub.add_parser(
        "shard", help="convert/inspect out-of-core shard directories"
    )
    shard_sub = shard.add_subparsers(dest="shard_command", required=True)
    convert = shard_sub.add_parser(
        "convert", help="stream a CSV into a memory-mapped shard directory"
    )
    convert.add_argument("--input", required=True, help="input CSV (header row required)")
    convert.add_argument("--out", required=True, help="shard directory to create")
    convert.add_argument(
        "--rows-per-shard",
        type=int,
        default=4096,
        help="rows per shard chunk (default 4096)",
    )
    convert.add_argument(
        "--force", action="store_true", help="overwrite an existing shard directory"
    )
    convert.set_defaults(func=cmd_shard)
    info = shard_sub.add_parser("info", help="print a shard directory's manifest summary")
    info.add_argument("dir", help="shard directory")
    info.set_defaults(func=cmd_shard)
    verify = shard_sub.add_parser(
        "verify", help="recompute shard digests against the manifest"
    )
    verify.add_argument("dir", help="shard directory")
    verify.set_defaults(func=cmd_shard)
    return parser


def main(argv: list[str] | None = None) -> int:
    # Chaos harness hook: a REPRO_FAULTS spec in the environment installs a
    # deterministic fault injector for this process (and, via inheritance,
    # every worker subprocess a sweep spawns).  No-op when unset.
    from repro.faults.inject import install_from_env

    install_from_env()
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
