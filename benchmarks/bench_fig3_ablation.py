"""Figure 3: representation ablation — remove one model at a time.

For Hospital, Soccer, and Adult, AUG runs with the full representation Q and
with each representation model removed in turn; F1 per variant is reported.
Each variant is a spec whose ``featurizers`` list is Table 7's models less
the removed one.

Expected shape (§6.3): the full model is at or near the top; removing any
single model costs F1, with the costliest model differing per dataset.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from conftest import bench_config, print_table

from repro.core import HoloDetect
from repro.evaluation import evaluate_predictions, make_split
from repro.features.pipeline import DEFAULT_MODEL_ORDER, default_model_names

#: Models exercised by the ablation (constraint violations is exercised by
#: the Table 8 bench, which sweeps the constraint set itself).
ABLATED = DEFAULT_MODEL_ORDER


def _f1(bundle, split, exclude: tuple[str, ...]) -> float:
    featurizers = [
        (name, {}) for name in default_model_names(bundle.constraints)
        if name not in exclude
    ]
    spec = replace(HoloDetect(bench_config()).spec, featurizers=featurizers)
    detector = HoloDetect.from_spec(spec)
    detector.fit(bundle.dirty, split.training, bundle.constraints)
    predictions = detector.predict_error_cells(split.test_cells)
    return evaluate_predictions(predictions, bundle.error_cells, split.test_cells).f1


@pytest.mark.parametrize("dataset_name", ["hospital", "soccer", "adult"])
def test_fig3_ablation(benchmark, core_bundles, dataset_name):
    bundle = core_bundles[dataset_name]
    split = make_split(bundle, 0.10, rng=3)

    def run():
        rows = [["(full model)", f"{_f1(bundle, split, ()):.3f}"]]
        for name in ABLATED:
            rows.append([f"- {name}", f"{_f1(bundle, split, (name,)):.3f}"])
        return rows

    rows = benchmark.pedantic(run, iterations=1, rounds=1)
    print_table(f"Figure 3 — ablation on {dataset_name}", ["Variant", "F1"], rows)
    full = float(rows[0][1])
    # Shape: the full model is not dominated by most ablations.
    worse_or_equal = sum(1 for r in rows[1:] if float(r[1]) <= full + 0.02)
    assert worse_or_equal >= len(rows[1:]) // 2
