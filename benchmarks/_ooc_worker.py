"""Subprocess worker for ``bench_out_of_core.py``.

Each invocation runs ONE phase of the out-of-core benchmark in a fresh
process so its peak RSS is attributable to that phase alone:

- ``ingest``    — tile the base CSV by ``--factor`` and stream it into a
  shard directory (:meth:`ShardedDataset.from_csv`); reports the peak RSS
  delta of the ingest and the manifest's in-memory footprint estimate.
- ``workload``  — the detection workload over the tiled relation, on either
  backing (``--backing sharded|inmemory``): an integrity pass over every
  shard digest (sharded) or a full fingerprint computation (in-memory),
  streaming relation-scoped featurizer fits (co-occurrence joint counts and
  FD-constraint violation counts), and a chunked streaming prediction with
  a detector fitted at overlap scale and loaded from disk.  Reports the
  peak RSS delta and a SHA-256 checksum of the prediction probabilities —
  the driver asserts the two backings' checksums (and fingerprints) are
  identical.

Peak measurement is stdlib-only: the worker snapshots ``VmRSS`` after
setup, resets ``VmHWM`` via ``/proc/self/clear_refs`` (best effort — in
containers that deny the write, the reported delta still subtracts the
setup baseline, it just cannot discount a pre-setup spike), runs the
phase, and reports ``VmHWM - baseline``.  Results are printed as one JSON
object on stdout.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import tempfile
from pathlib import Path


def _vm_kb(field: str) -> int | None:
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def _reset_peak() -> bool:
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as f:
            f.write("5")
        return True
    except OSError:
        return False


def _peak_bytes() -> int:
    kb = _vm_kb("VmHWM")
    if kb is not None:
        return kb * 1024
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class PeakMeter:
    """Peak-RSS delta of the code between ``start()`` and ``delta_bytes``."""

    def start(self) -> None:
        baseline = _vm_kb("VmRSS")
        self.baseline_bytes = (baseline or 0) * 1024
        self.reset_ok = _reset_peak()

    def delta_bytes(self) -> int:
        return max(0, _peak_bytes() - self.baseline_bytes)


def _tiled_csv(base_csv: Path, factor: int, out_path: Path) -> None:
    """Write ``factor`` back-to-back repetitions of the base CSV's rows."""
    with base_csv.open(newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader)
        base_rows = list(reader)
    with out_path.open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for _ in range(factor):
            writer.writerows(base_rows)


def _constraints(seed: int):
    from repro.data.registry import load_dataset

    return load_dataset("hospital", num_rows=50, seed=seed).constraints


def _setup(relation, args):
    """Relation-size-*independent* setup: detector stack imports, the
    constraint schemas, and the saved overlap-scale detector.

    Runs before the meter starts — the memory gate is about allocations
    that scale with the relation, and none of this does.
    """
    from repro.persistence import load_detector

    constraints = _constraints(args.seed)
    detector = load_detector(args.model, relation)
    detector._train_cells = set()
    return detector, constraints


def _run_workload(relation, detector, constraints, args) -> dict:
    """Integrity pass + streaming fits + streamed chunked prediction."""
    from repro.features.dataset_level import ConstraintViolationFeaturizer
    from repro.features.pipeline import FeaturePipeline
    from repro.features.tuple_level import CooccurrenceFeaturizer

    import numpy as np

    # Integrity: recompute content hashes by streaming every shard.
    if hasattr(relation, "verify"):
        relation.verify()
    fingerprint = relation.fingerprint()

    # Streaming relation-scoped fits (mergeable per-shard partials).
    cooc = CooccurrenceFeaturizer().fit(relation)
    violations = ConstraintViolationFeaturizer(constraints).fit(relation)
    fit_digest = hashlib.sha256()
    # json canonicalises the value types: the sharded backing yields
    # np.str_ (a str subclass — equal, same hash, different repr).
    fit_digest.update(
        json.dumps(
            [[a, v, n] for (a, v), n in sorted(cooc._value_counts.items())]
        ).encode("utf-8")
    )
    fit_digest.update(violations._tuple_counts.tobytes())

    # Chunked streaming prediction with the overlap-scale detector.
    cells = FeaturePipeline._sample_cells(relation, args.sample)
    probabilities = np.fromiter(
        (p for _, p in detector.iter_predict(iter(cells))),
        dtype=np.float64,
        count=len(cells),
    )
    return {
        "fingerprint": fingerprint,
        "num_rows": relation.num_rows,
        "cells_scored": len(cells),
        "fit_checksum": fit_digest.hexdigest(),
        "prediction_checksum": hashlib.sha256(probabilities.tobytes()).hexdigest(),
        "cache_stats": (
            detector.cache_stats.as_dict() if detector.cache_stats else None
        ),
    }


def cmd_ingest(args: argparse.Namespace) -> dict:
    from repro.dataset.sharded import ShardedDataset

    tiled = Path(tempfile.mkdtemp(prefix="ooc-tile-")) / "tiled.csv"
    _tiled_csv(Path(args.csv), args.factor, tiled)
    meter = PeakMeter()
    meter.start()
    sharded = ShardedDataset.from_csv(
        tiled, args.out, shard_rows=args.shard_rows, force=True
    )
    return {
        "phase": "ingest",
        "peak_delta_bytes": meter.delta_bytes(),
        "reset_ok": meter.reset_ok,
        "num_rows": sharded.num_rows,
        "num_shards": sharded.num_shards,
        "fingerprint": sharded.fingerprint(),
        "inmemory_bytes": sharded.inmemory_bytes,
    }


def cmd_workload(args: argparse.Namespace) -> dict:
    meter = PeakMeter()
    if args.backing == "sharded":
        from repro.dataset.sharded import ShardedDataset

        relation = ShardedDataset(args.data, max_open_arrays=args.max_open_arrays)
        detector, constraints = _setup(relation, args)
        meter.start()
        result = _run_workload(relation, detector, constraints, args)
    else:
        # The in-memory twin *is* the comparison point, so materialising the
        # relation (read_csv) stays inside the metered region; the detector
        # load cannot precede the relation it attaches to, so it is metered
        # here too — a small, conservative asymmetry.
        from repro.dataset.loader import read_csv
        from repro.persistence import load_detector

        constraints = _constraints(args.seed)
        tiled = Path(tempfile.mkdtemp(prefix="ooc-tile-")) / "tiled.csv"
        _tiled_csv(Path(args.csv), args.factor, tiled)
        meter.start()
        relation = read_csv(tiled)
        detector = load_detector(args.model, relation)
        detector._train_cells = set()
        result = _run_workload(relation, detector, constraints, args)
    result.update(
        phase=f"workload-{args.backing}",
        peak_delta_bytes=meter.delta_bytes(),
        reset_ok=meter.reset_ok,
    )
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)

    ingest = sub.add_parser("ingest")
    ingest.add_argument("--csv", required=True)
    ingest.add_argument("--factor", type=int, required=True)
    ingest.add_argument("--out", required=True)
    ingest.add_argument("--shard-rows", type=int, default=512)
    ingest.set_defaults(func=cmd_ingest)

    workload = sub.add_parser("workload")
    workload.add_argument("--backing", choices=["sharded", "inmemory"], required=True)
    workload.add_argument("--data", help="shard directory (sharded backing)")
    workload.add_argument("--csv", help="base CSV (inmemory backing)")
    workload.add_argument("--factor", type=int, default=1)
    workload.add_argument("--model", required=True, help="saved detector directory")
    workload.add_argument("--sample", type=int, default=2000)
    workload.add_argument("--seed", type=int, default=1)
    workload.add_argument("--max-open-arrays", type=int, default=16)
    workload.set_defaults(func=cmd_workload)

    args = parser.parse_args()
    print(json.dumps(args.func(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
