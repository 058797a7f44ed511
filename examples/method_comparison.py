"""Comparing detection paradigms on one dataset (a miniature Table 2).

Runs the rule-based (CV), repair-based (HC), statistical (OD, FBI),
feature-engineered (LR), and learned (SuperL, AUG) detectors on the Soccer
benchmark and prints their precision/recall/F1 side by side — the paper's
core argument in one script: side-effect detectors are one-sided, and
augmentation closes the supervised model's recall gap.

    python examples/method_comparison.py
"""

from __future__ import annotations

from dataclasses import replace

from repro import DetectorConfig, HoloDetect, evaluate_predictions, load_dataset, make_split
from repro.baselines import (
    ConstraintViolationDetector,
    ForbiddenItemsetDetector,
    HoloCleanDetector,
    LogisticRegressionDetector,
    OutlierDetector,
)


def main() -> None:
    bundle = load_dataset("soccer", num_rows=600, seed=2)
    split = make_split(bundle, training_fraction=0.05, rng=0)
    config = DetectorConfig(epochs=30, seed=0)

    detectors = [
        ("CV (rules)", ConstraintViolationDetector()),
        ("HC (repair)", HoloCleanDetector()),
        ("OD (outliers)", OutlierDetector()),
        ("FBI (itemsets)", ForbiddenItemsetDetector()),
        ("LR (features)", LogisticRegressionDetector(seed=0)),
        ("SuperL (no aug)", HoloDetect(replace(config, augment=False))),
        ("AUG (HoloDetect)", HoloDetect(config)),
    ]

    print(f"{'method':18s} {'P':>6s} {'R':>6s} {'F1':>6s}")
    print("-" * 40)
    for name, detector in detectors:
        detector.fit(bundle.dirty, split.training, bundle.constraints)
        predicted = detector.predict_error_cells(split.test_cells)
        m = evaluate_predictions(predicted, bundle.error_cells, split.test_cells)
        print(f"{name:18s} {m.precision:6.3f} {m.recall:6.3f} {m.f1:6.3f}")


if __name__ == "__main__":
    main()
