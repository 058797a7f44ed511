"""Design-choice ablations beyond the paper's own figures.

Four choices the system makes that the paper motivates in prose get their
own measurements here:

- **Platt scaling** (§4.2) — calibrated vs raw probabilities;
- **weak supervision** (§5.4) — channel learned from labelled errors plus
  Naïve Bayes pairs vs labelled errors alone;
- **active-learning selection strategy** (§6.1 uses uncertainty sampling) —
  uncertainty vs error-seeking vs random;
- **multi-edit channel** (extension; §7 leaves it as future work) —
  single-edit policy vs the composed CompositePolicy, which wraps the
  channel the single-edit arm learns.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from conftest import bench_config, print_table

from repro.baselines import ActiveLearningDetector, GroundTruthOracle
from repro.core import HoloDetect
from repro.evaluation import evaluate_predictions, make_split


def _f1(bundle, split, config, **components) -> float:
    """F1 of ``config``'s detector with spec ``components`` (``policy``,
    ``calibrator``) replaced."""
    detector = HoloDetect.from_spec(replace(HoloDetect(config).spec, **components))
    detector.fit(bundle.dirty, split.training, bundle.constraints)
    return evaluate_predictions(
        detector.predict_error_cells(split.test_cells), bundle.error_cells, split.test_cells
    ).f1


def test_ablation_calibration(benchmark, core_bundles):
    bundle = core_bundles["hospital"]
    split = make_split(bundle, 0.10, rng=13)

    def run():
        with_platt = _f1(bundle, split, bench_config())
        without = _f1(bundle, split, bench_config(), calibrator=("none", {}))
        return [["Platt scaling", f"{with_platt:.3f}"], ["raw scores", f"{without:.3f}"]]

    rows = benchmark.pedantic(run, iterations=1, rounds=1)
    print_table("Ablation — calibration (hospital)", ["Variant", "F1"], rows)
    # Shape: calibration does not hurt materially.
    assert float(rows[0][1]) >= float(rows[1][1]) - 0.1


def test_ablation_weak_supervision(benchmark, core_bundles):
    """Force the channel to be learned with vs without the NB top-up."""
    bundle = core_bundles["hospital"]
    split = make_split(bundle, 0.05, rng=13)

    def run():
        # Channel from labelled errors only (min_error_pairs=0 disables the
        # weak-supervision top-up).
        labels_only = _f1(bundle, split, replace(bench_config(), min_error_pairs=0))
        # Channel always topped up with NB pairs.
        topped_up = _f1(bundle, split, replace(bench_config(), min_error_pairs=10**9))
        return [
            ["labelled errors only", f"{labels_only:.3f}"],
            ["+ weak supervision", f"{topped_up:.3f}"],
        ]

    rows = benchmark.pedantic(run, iterations=1, rounds=1)
    print_table("Ablation — weak supervision (hospital, 5% labels)", ["Channel source", "F1"], rows)


def test_ablation_al_strategy(benchmark, core_bundles):
    bundle = core_bundles["hospital"]
    split = make_split(bundle, 0.05, rng=13)
    cfg = bench_config()

    def run():
        rows = []
        for strategy in ("uncertainty", "error_seeking", "random"):
            detector = ActiveLearningDetector(
                GroundTruthOracle(bundle),
                split.sampling_cells,
                loops=2,
                labels_per_loop=25,
                config=cfg,
                strategy=strategy,
            )
            detector.fit(bundle.dirty, split.training, bundle.constraints)
            m = evaluate_predictions(
                detector.predict_error_cells(split.test_cells),
                bundle.error_cells,
                split.test_cells,
            )
            rows.append([strategy, f"{m.f1:.3f}"])
        return rows

    rows = benchmark.pedantic(run, iterations=1, rounds=1)
    print_table("Ablation — AL selection strategy (hospital)", ["Strategy", "F1"], rows)


def test_ablation_multi_edit_channel(benchmark, core_bundles):
    bundle = core_bundles["hospital"]
    split = make_split(bundle, 0.10, rng=13)

    def run():
        single = _f1(bundle, split, bench_config())
        multi = _f1(bundle, split, bench_config(), policy=("methods:multi_edit", {}))
        return [["single edit (paper)", f"{single:.3f}"], ["multi edit (extension)", f"{multi:.3f}"]]

    rows = benchmark.pedantic(run, iterations=1, rounds=1)
    print_table("Ablation — noisy-channel edit depth (hospital)", ["Channel", "F1"], rows)
    # Shape: Hospital's errors are single typos, so multi-edit should not win big.
    assert float(rows[0][1]) >= float(rows[1][1]) - 0.15
