"""Shared infrastructure for the benchmark harness.

Every module in this directory regenerates one table or figure of the
paper's evaluation (§6 / Appendix A.2) at a scale that runs offline on a
CPU in minutes.  Set the ``REPRO_BENCH_ROWS`` environment variable to raise
the dataset scale (e.g. to the paper's original sizes) and
``REPRO_BENCH_EPOCHS`` to deepen training toward the paper's 500 epochs.

Rows are printed with the same structure the paper reports, so a run of
``pytest benchmarks/ --benchmark-only -s`` reproduces each table's layout.
The benchmark→paper index lives in ``docs/architecture.md``.

All detector-based benchmarks run with the batched featurization engine and,
like every detector, no feature cache; the speedup of an attached cache is
measured — not assumed — by ``bench_feature_engine.py``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core import DetectorConfig

#: Default scaled-down knobs (overridable via environment).
BENCH_ROWS = int(os.environ.get("REPRO_BENCH_ROWS", "300"))
BENCH_EPOCHS = int(os.environ.get("REPRO_BENCH_EPOCHS", "20"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "1"))


def bench_config(**overrides) -> DetectorConfig:
    """The fast detector configuration shared by all benchmarks."""
    defaults = dict(
        epochs=BENCH_EPOCHS,
        embedding_dim=8,
        lr=3e-3,
        # A slightly lower step floor than the library default keeps the
        # full benchmark suite within a laptop-scale time budget.
        min_training_steps=600,
        seed=0,
    )
    defaults.update(overrides)
    return DetectorConfig(**defaults)


def print_table(title: str, header: list[str], rows: list[list[object]]) -> None:
    """Print a paper-style table (the harness's reporting format)."""
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows)) for i in range(len(header))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))


def write_results(path: Path, section: str, payload: dict) -> None:
    """Record one section of a benchmark's JSON results file.

    Sections already in the file (other tests of the same benchmark) are
    kept; an unreadable file starts over.
    """
    results = {}
    if path.exists():
        try:
            results = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            results = {}
    results[section] = payload
    path.write_text(json.dumps(results, indent=2), encoding="utf-8")


#: Per-dataset row floors.  Adult's published error rate is 0.1% of cells —
#: at a few hundred rows it would carry almost no errors at all.  Food and
#: Soccer need enough volume for the weak-supervision channel to find
#: example pairs (their errors are mostly swaps, which only co-occurrence
#: evidence at some scale can expose).
MIN_ROWS = {"adult": 2000, "food": 600, "soccer": 600, "animal": 1500}


def dataset_rows(name: str) -> int:
    return max(BENCH_ROWS, MIN_ROWS.get(name, 0))


@pytest.fixture(scope="session")
def bundles():
    """The five benchmark datasets at bench scale, generated once."""
    from repro.data import DATASET_NAMES, load_dataset

    return {
        name: load_dataset(name, num_rows=dataset_rows(name), seed=BENCH_SEED)
        for name in DATASET_NAMES
    }


@pytest.fixture(scope="session")
def core_bundles(bundles):
    """The three datasets the paper's micro-benchmarks focus on."""
    return {k: bundles[k] for k in ("hospital", "soccer", "adult")}
