"""Incremental re-scoring: ``DetectionSession.apply`` vs full re-prediction.

Companion to ``bench_feature_engine.py`` and the Fig. 4 interactive loop:
the paper's deployment pattern is *label a few cells → re-score → repeat*.
This harness measures that loop's hot step.  A fitted AUG detector first
predicts the whole relation; then a 1%-of-cells edit batch (tuple repairs —
edits clustered on a few rows, the Fig. 4 workload shape) is applied through
a :class:`~repro.core.detector.DetectionSession`, which re-scores only the
cells whose features the edits can change, against a full ``predict()``
over the edited dataset.

Two things are asserted, per the ISSUE 2 acceptance criteria:

- the incremental path is **≥5× faster** than full re-prediction;
- the patched probabilities are **bit-for-bit identical** to the full pass
  — incrementality never changes a prediction.

The measured numbers are also written as JSON (to ``bench_incremental.json``
in the working directory) so CI can archive them as a build artifact.

Run with ``pytest benchmarks/bench_incremental.py -s`` to see the table.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import bench_config, print_table

from repro.core import DetectionSession, HoloDetect
from repro.dataset import Cell
from repro.evaluation.splits import make_split
from repro.utils.timing import Timer


def tuple_repair_edits(dataset, cells, fraction=0.01, seed=13):
    """An edit batch covering ``fraction`` of the relation's cells.

    Edits are clustered on whole tuples (each touched row is repaired
    across its attributes) — the shape of the paper's interactive repair
    loop — with replacement values drawn from the column's own domain so
    the edits stay realistic.
    """
    rng = np.random.default_rng(seed)
    n_edits = max(1, int(fraction * len(cells)))
    attrs = dataset.attributes
    n_rows = max(1, -(-n_edits // len(attrs)))  # ceil division
    rows = rng.choice(dataset.num_rows, size=n_rows, replace=False)
    edits: dict[Cell, str] = {}
    for row in rows:
        for attr in attrs:
            if len(edits) >= n_edits:
                break
            domain = dataset.domain(attr)
            current = dataset.value(Cell(int(row), attr))
            replacement = domain[int(rng.integers(len(domain)))]
            if replacement == current:
                replacement = current + "*"
            edits[Cell(int(row), attr)] = replacement
    return edits


@pytest.mark.parametrize("dataset_name", ["hospital"])
def test_incremental_rescore_speedup(benchmark, core_bundles, dataset_name):
    bundle = core_bundles[dataset_name]
    split = make_split(bundle, 0.05, rng=7)
    detector = HoloDetect(bench_config())
    detector.fit(bundle.dirty, split.training, bundle.constraints)
    dataset = bundle.dirty
    cells = [c for c in dataset.cells() if c not in detector._train_cells]

    def run():
        # Initial full pass (warm start for the interactive loop).
        session = DetectionSession(detector, cells)
        edits = tuple_repair_edits(dataset, cells)
        with Timer() as incremental:
            patched = session.apply(edits)
        # Full re-prediction over the *same edited dataset* — the incremental
        # path must reproduce exactly this, only faster.
        with Timer() as full:
            baseline = detector.predict(cells)
        return session, edits, patched, baseline, incremental.elapsed, full.elapsed

    session, edits, patched, baseline, t_incr, t_full = benchmark.pedantic(
        run, iterations=1, rounds=1
    )
    speedup = t_full / max(t_incr, 1e-9)
    print_table(
        f"Incremental re-scoring — {dataset_name} "
        f"({len(cells)} cells, {len(edits)} edits on "
        f"{len(session.last_delta.rows)} rows)",
        ["pass", "seconds"],
        [
            ["full re-prediction", f"{t_full:.3f}"],
            ["session.apply (incremental)", f"{t_incr:.3f}"],
            ["speedup (full/incremental)", f"{speedup:.1f}x"],
            ["cells re-scored", f"{session.rescored_cells}"],
        ],
    )

    results = {
        "dataset": dataset_name,
        "num_cells": len(cells),
        "num_edits": len(edits),
        "edited_rows": len(session.last_delta.rows),
        "cells_rescored": session.rescored_cells,
        "seconds_full": t_full,
        "seconds_incremental": t_incr,
        "speedup": speedup,
    }
    Path("bench_incremental.json").write_text(
        json.dumps(results, indent=2), encoding="utf-8"
    )

    # ISSUE 2 acceptance: the incremental path is exact...
    assert patched.cells == baseline.cells
    assert patched.probabilities.tobytes() == baseline.probabilities.tobytes()
    # ...and >=5x faster than full re-prediction for a 1% edit batch.
    assert speedup >= 5.0, f"expected >=5x speedup, got {speedup:.2f}x"
