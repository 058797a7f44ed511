"""Fit-path performance: warm (artifact-store-served) fit vs cold fit.

Companion to ``bench_feature_engine.py`` (predict path) and
``bench_incremental.py`` (re-score path): after ISSUE 5 the remaining slow
layer was *training-time* cost (§6.7, Table 5) — every ``fit()`` retrained
FastText embeddings from scratch on an unchanged corpus, and a Table-2
sweep refit bit-identical embeddings once per scenario.  The
content-addressed artifact store (:mod:`repro.artifacts`) serves those
fits instead.

Two gates, per the ISSUE 5 acceptance criteria:

- ``test_warm_fit_speedup`` — a warm ``fit()`` over a shared store is
  **≥3× faster** than the cold fit and the resulting predictions are
  **bit-for-bit identical**;
- ``test_sweep_artifact_sharing`` — a 2-worker ``repro sweep`` over a
  shared artifact directory produces metrics **bit-for-bit identical** to a
  cold sequential sweep, with a measured wall-clock reduction.

The measured numbers are written as JSON (to ``bench_fit_path.json`` in
the working directory) so CI archives them as an artifact.

Run with ``pytest benchmarks/bench_fit_path.py -s`` to see the tables.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from conftest import BENCH_EPOCHS, bench_config, print_table, write_results

from repro.artifacts import ArtifactStore
from repro.core import HoloDetect
from repro.evaluation.matrix import ScenarioMatrix, run_matrix
from repro.evaluation.splits import make_split
from repro.utils.timing import Timer

_RESULTS_PATH = Path("bench_fit_path.json")


@pytest.mark.parametrize("dataset_name", ["hospital"])
def test_warm_fit_speedup(benchmark, core_bundles, tmp_path, dataset_name):
    bundle = core_bundles[dataset_name]
    split = make_split(bundle, 0.05, rng=7)
    config = bench_config(artifact_dir=str(tmp_path / "artifacts"))

    def run():
        cold_detector = HoloDetect(config)
        with Timer() as cold:
            cold_detector.fit(bundle.dirty, split.training, bundle.constraints)
        cold_preds = cold_detector.predict(split.test_cells)
        # A fresh detector *and* a fresh store instance: the warm fit is
        # served through the on-disk tier, the cross-process case.
        warm_detector = HoloDetect(config)
        with Timer() as warm:
            warm_detector.fit(bundle.dirty, split.training, bundle.constraints)
        warm_preds = warm_detector.predict(split.test_cells)
        return cold_preds, warm_preds, warm_detector, cold.elapsed, warm.elapsed

    cold_preds, warm_preds, warm_detector, t_cold, t_warm = benchmark.pedantic(
        run, iterations=1, rounds=1
    )
    speedup = t_cold / max(t_warm, 1e-9)
    stats = warm_detector.artifact_stats
    print_table(
        f"Warm vs cold fit — {dataset_name} "
        f"({bundle.dirty.num_rows} rows, {len(warm_detector.artifact_keys)} artifacts)",
        ["pass", "seconds"],
        [
            ["cold fit (trains embeddings)", f"{t_cold:.3f}"],
            ["warm fit (store-served)", f"{t_warm:.3f}"],
            ["speedup (cold/warm)", f"{speedup:.1f}x"],
            ["store", stats.summary()],
        ],
    )
    write_results(
        _RESULTS_PATH,
        "warm_fit",
        {
            "dataset": dataset_name,
            "rows": bundle.dirty.num_rows,
            "artifacts": len(warm_detector.artifact_keys),
            "seconds_cold": t_cold,
            "seconds_warm": t_warm,
            "speedup": speedup,
            "store_stats": stats.as_dict(),
        },
    )

    # ISSUE 5 acceptance: warm is exact...
    assert cold_preds.cells == warm_preds.cells
    assert cold_preds.probabilities.tobytes() == warm_preds.probabilities.tobytes()
    # ...and >=3x faster than retraining everything.
    assert speedup >= 3.0, f"expected >=3x warm-fit speedup, got {speedup:.2f}x"


ACCURACY_FIELDS = ("fingerprint", "spec", "metrics", "trials", "mean_f1", "std_f1")


def _accuracy_view(records):
    return [{k: r[k] for k in ACCURACY_FIELDS} for r in records]


def test_sweep_artifact_sharing(benchmark, tmp_path):
    """2-worker sweep over a shared artifact dir vs cold sequential sweep."""
    matrix = ScenarioMatrix.from_dict(
        {
            "datasets": [{"name": "hospital", "rows": 120}],
            "error_profiles": ["native"],
            "label_budgets": [0.1],
            "methods": [
                {"name": "holodetect", "epochs": BENCH_EPOCHS, "embedding_dim": 8,
                 "min_training_steps": 100},
                {"name": "superl", "epochs": BENCH_EPOCHS, "embedding_dim": 8,
                 "min_training_steps": 100},
            ],
            "trials": 2,
            "seed": 11,
        }
    )

    def run():
        with Timer() as sequential:
            cold = run_matrix(matrix, executor="serial")
        with Timer() as parallel:
            shared = run_matrix(
                matrix, workers=2, executor="process",
                artifact_dir=tmp_path / "sweep-artifacts",
            )
        return cold, shared, sequential.elapsed, parallel.elapsed

    cold, shared, t_cold, t_shared = benchmark.pedantic(run, iterations=1, rounds=1)
    reduction = t_cold / max(t_shared, 1e-9)
    stats = shared.artifacts["stats"]
    print_table(
        "Sweep: 2 workers + shared artifact dir vs cold sequential",
        ["configuration", "seconds"],
        [
            ["sequential, no artifacts", f"{t_cold:.3f}"],
            ["2 workers, shared artifacts", f"{t_shared:.3f}"],
            ["wall-clock reduction", f"{reduction:.2f}x"],
            ["store", f"{stats['hits']} hits / {stats['lookups']} lookups, "
                      f"{stats['puts']} stored"],
        ],
    )
    write_results(
        _RESULTS_PATH,
        "sweep_sharing",
        {
            "scenarios": cold.total,
            "seconds_sequential_cold": t_cold,
            "seconds_parallel_shared": t_shared,
            "reduction": reduction,
            "store_stats": stats,
        },
    )

    # ISSUE 5 acceptance: sweep metrics are bit-for-bit identical to the
    # cold sequential run...
    assert _accuracy_view(shared.records) == _accuracy_view(cold.records)
    # ...fits were actually shared (trials × methods reuse one relation)...
    assert stats["hits"] > 0
    # ...and the 2-worker shared-store sweep measurably reduces wall-clock.
    assert t_shared < t_cold, (
        f"expected a wall-clock reduction, got {t_shared:.2f}s vs {t_cold:.2f}s"
    )
