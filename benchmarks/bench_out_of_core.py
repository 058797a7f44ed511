"""Out-of-core sharded relations: bit-identity and bounded-memory gates.

Companion to ``bench_fit_path.py`` (warm-fit path): ISSUE 8's tentpole is
the row-sharded, memory-mapped dataset backing
(:mod:`repro.dataset.sharded`), whose contract is *indistinguishability* —
identical fingerprints, identical artifact keys, bit-identical predictions
— at a memory footprint bounded by shards, not the relation.

Two phases, per the acceptance criteria:

- ``test_overlap_bit_identity`` (in-process, overlap scale) — a detector
  fitted on the sharded twin of a relation over a store already warmed by
  the in-memory fit reuses every whole-state artifact (identical keys) and
  produces **bit-identical** predictions, streamed or not;
- ``test_scale_bounded_memory`` (subprocess-isolated, ``>=10x`` bench
  scale) — the base relation is tiled by ``$REPRO_OOC_FACTOR`` (default
  40, floor-asserted at 10) and each phase's peak RSS is measured in its
  own process: CSV->shard ingest and the full sharded detection workload
  (integrity pass, streaming partial fits, chunked streaming prediction)
  must both peak **below the in-memory footprint** of the tiled relation,
  while the in-memory twin of the same workload reports the same
  prediction checksum and relation fingerprint (bit-identity at scale).

The measured numbers are written as JSON (to ``$REPRO_OOC_JSON`` if set,
else ``bench_out_of_core.json``) so CI archives them as an artifact.

Run with ``pytest benchmarks/bench_out_of_core.py -s`` to see the tables.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import BENCH_ROWS, BENCH_SEED, bench_config, print_table, write_results

from repro.data import load_dataset
from repro.dataset.loader import write_csv
from repro.dataset.sharded import ShardedDataset
from repro.evaluation.splits import make_split
from repro.persistence import save_detector
from repro.utils.timing import Timer

_RESULTS_PATH = Path(os.environ.get("REPRO_OOC_JSON", "bench_out_of_core.json"))
_FACTOR = int(os.environ.get("REPRO_OOC_FACTOR", "40"))
_WORKER = Path(__file__).parent / "_ooc_worker.py"


def _detector_config(tmp_path: Path):
    from repro.core import HoloDetect

    config = bench_config(
        artifact_dir=str(tmp_path / "artifacts"),
        prediction_batch=256,
    )
    return HoloDetect(config)


@pytest.fixture(scope="module")
def overlap(tmp_path_factory):
    """Base bundle, its sharded twin, and a detector fitted on each backing
    over one shared artifact store (in-memory first, so the sharded fit is
    the warm one)."""
    tmp = tmp_path_factory.mktemp("ooc")
    bundle = load_dataset("hospital", num_rows=BENCH_ROWS, seed=BENCH_SEED)
    sharded = ShardedDataset.convert(
        bundle.dirty, tmp / "shards", shard_rows=max(32, BENCH_ROWS // 8)
    )
    split = make_split(bundle, 0.05, rng=7)

    with Timer() as cold_timer:
        mem = _detector_config(tmp)
        mem.fit(bundle.dirty, split.training, bundle.constraints)
    with Timer() as warm_timer:
        ooc = _detector_config(tmp)
        ooc.fit(sharded, split.training, bundle.constraints)
    return {
        "tmp": tmp,
        "bundle": bundle,
        "sharded": sharded,
        "mem": mem,
        "ooc": ooc,
        "cold_seconds": cold_timer.elapsed,
        "warm_seconds": warm_timer.elapsed,
    }


def test_overlap_bit_identity(overlap):
    mem, ooc = overlap["mem"], overlap["ooc"]
    assert overlap["sharded"].fingerprint() == overlap["bundle"].dirty.fingerprint()

    # The sharded fit reused every whole-state artifact the in-memory fit
    # stored (per-shard partial keys are extra, recorded under /shard/).
    mem_keys = {k: v for k, v in mem.artifact_keys.items() if "/shard/" not in k}
    ooc_keys = {k: v for k, v in ooc.artifact_keys.items() if "/shard/" not in k}
    assert mem_keys == ooc_keys

    predictions = mem.predict()
    ooc_predictions = ooc.predict(predictions.cells)
    assert np.array_equal(predictions.probabilities, ooc_predictions.probabilities)

    streamed = list(ooc.iter_predict(iter(predictions.cells)))
    assert np.array_equal(
        np.fromiter((p for _, p in streamed), dtype=np.float64),
        predictions.probabilities,
    )

    payload = {
        "rows": overlap["bundle"].dirty.num_rows,
        "shards": overlap["sharded"].num_shards,
        "cold_fit_seconds": round(overlap["cold_seconds"], 3),
        "warm_sharded_fit_seconds": round(overlap["warm_seconds"], 3),
        "cells_scored": len(predictions.cells),
        "bit_identical": True,
    }
    write_results(_RESULTS_PATH, "overlap", payload)
    print_table(
        "Out-of-core overlap scale: sharded vs in-memory",
        ["rows", "shards", "cold fit (s)", "warm sharded fit (s)", "identical"],
        [[
            payload["rows"], payload["shards"], payload["cold_fit_seconds"],
            payload["warm_sharded_fit_seconds"], "yes",
        ]],
    )


def _worker(args: list[str]) -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    # Pin BLAS pools: thread stacks would smear the RSS attribution.
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    env.setdefault("OMP_NUM_THREADS", "1")
    proc = subprocess.run(
        [sys.executable, str(_WORKER), *args],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert proc.returncode == 0, f"worker {args[0]} failed:\n{proc.stderr}"
    return json.loads(proc.stdout.splitlines()[-1])


def test_scale_bounded_memory(overlap, tmp_path):
    assert _FACTOR >= 10, "REPRO_OOC_FACTOR must keep the >=10x scale gate"
    bundle = overlap["bundle"]

    base_csv = tmp_path / "base.csv"
    write_csv(bundle.dirty, base_csv)
    model_dir = tmp_path / "model"
    save_detector(overlap["mem"], model_dir)

    shard_dir = tmp_path / "tiled-shards"
    common = ["--factor", str(_FACTOR)]
    ingest = _worker(
        ["ingest", "--csv", str(base_csv), "--out", str(shard_dir), *common]
    )
    footprint = ingest["inmemory_bytes"]
    assert ingest["num_rows"] == bundle.dirty.num_rows * _FACTOR

    workload = [
        "--model", str(model_dir), "--sample", "2000", "--seed", str(BENCH_SEED),
    ]
    sharded = _worker(
        ["workload", "--backing", "sharded", "--data", str(shard_dir), *workload]
    )
    inmemory = _worker(
        ["workload", "--backing", "inmemory", "--csv", str(base_csv), *common, *workload]
    )

    # Bit-identity at scale: same relation content, same fits, same scores.
    assert sharded["fingerprint"] == ingest["fingerprint"] == inmemory["fingerprint"]
    assert sharded["fit_checksum"] == inmemory["fit_checksum"]
    assert sharded["prediction_checksum"] == inmemory["prediction_checksum"]

    # Memory gates: every out-of-core phase peaks below what merely holding
    # the tiled relation in memory costs.
    assert ingest["peak_delta_bytes"] < footprint, (
        f"ingest peaked at {ingest['peak_delta_bytes']} >= footprint {footprint}"
    )
    assert sharded["peak_delta_bytes"] < footprint, (
        f"sharded workload peaked at {sharded['peak_delta_bytes']} "
        f">= footprint {footprint}"
    )

    payload = {
        "factor": _FACTOR,
        "rows": ingest["num_rows"],
        "shards": ingest["num_shards"],
        "inmemory_footprint_bytes": footprint,
        "ingest_peak_delta_bytes": ingest["peak_delta_bytes"],
        "sharded_peak_delta_bytes": sharded["peak_delta_bytes"],
        "inmemory_peak_delta_bytes": inmemory["peak_delta_bytes"],
        "cells_scored": sharded["cells_scored"],
        "prediction_checksum": sharded["prediction_checksum"],
        "bit_identical": True,
    }
    write_results(_RESULTS_PATH, "scale", payload)

    def mb(b: int) -> str:
        return f"{b / 1e6:.1f}"

    print_table(
        f"Out-of-core at {_FACTOR}x bench scale ({ingest['num_rows']} rows)",
        ["phase", "peak RSS delta (MB)", "relation footprint (MB)"],
        [
            ["csv->shard ingest", mb(ingest["peak_delta_bytes"]), mb(footprint)],
            ["sharded workload", mb(sharded["peak_delta_bytes"]), mb(footprint)],
            ["in-memory workload", mb(inmemory["peak_delta_bytes"]), mb(footprint)],
        ],
    )
