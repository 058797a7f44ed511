"""Table 4: learned augmentation versus random / policy-free augmentation.

Three strategies are compared at two training sizes:

- **AUG** — transformations and policy both learned (Algorithms 1–3):
  the spec's ``learned`` policy;
- **Rand. Trans.** — completely random transformations, not data-derived:
  ``random-channel``;
- **AUG w/o Policy** — Φ learned as AUG learns it, but applied uniformly
  at random: ``uniform``.

Expected shape (§6.6): AUG on top; random transformations fail to match the
dataset's error distribution; the learned distribution matters beyond the
learned transformation set.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from conftest import bench_config, print_table

from repro.core import HoloDetect
from repro.evaluation import evaluate_predictions, make_split

SIZES = [0.05, 0.10]


def _run_variant(bundle, split, policy: str, **params) -> float:
    spec = replace(HoloDetect(bench_config()).spec, policy=(policy, params))
    detector = HoloDetect.from_spec(spec)
    detector.fit(bundle.dirty, split.training, bundle.constraints)
    return evaluate_predictions(
        detector.predict_error_cells(split.test_cells), bundle.error_cells, split.test_cells
    ).f1


@pytest.mark.parametrize("dataset_name", ["hospital", "soccer", "adult"])
def test_table4_policy_ablation(benchmark, core_bundles, dataset_name):
    bundle = core_bundles[dataset_name]

    def run():
        rows = []
        for size in SIZES:
            split = make_split(bundle, size, rng=6)
            aug = _run_variant(bundle, split, "learned")
            rand = _run_variant(bundle, split, "random-channel", seed=0)
            nopol = _run_variant(bundle, split, "uniform")
            rows.append([f"{size:.0%}", f"{aug:.3f}", f"{rand:.3f}", f"{nopol:.3f}"])
        return rows

    rows = benchmark.pedantic(run, iterations=1, rounds=1)
    print_table(
        f"Table 4 — {dataset_name}",
        ["T", "AUG", "Rand. Trans.", "AUG w/o Policy"],
        rows,
    )
    # Shape: learned augmentation is not dominated by the random channel.
    for row in rows:
        assert float(row[1]) >= float(row[2]) - 0.1
