"""Seeded multi-trial experiment runner.

§6.1: "we perform 10 runs with different random seeds ... we report the
median performance" — medians keep precision, recall, and F1 coupled (the
median *run by F1* is reported, not the per-metric median, for exactly that
reason).  The runner also records wall-clock time per trial for Table 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.data.bundle import DatasetBundle
from repro.evaluation.metrics import Metrics, evaluate_predictions
from repro.evaluation.splits import EvaluationSplit, make_split
from repro.utils.rng import spawn_generators
from repro.utils.timing import Timer

#: A method under evaluation: (bundle, split, rng) -> predicted error cells.
MethodFn = Callable[[DatasetBundle, EvaluationSplit, np.random.Generator], "set"]


@dataclass
class ExperimentResult:
    """Per-trial metrics plus the median summary."""

    trials: list[Metrics] = field(default_factory=list)
    runtimes: list[float] = field(default_factory=list)

    @property
    def median(self) -> Metrics:
        """The trial with median F1 (couples P, R, and F1, as in §6.1).

        Trials are ranked by ``(f1, precision, recall)`` so ties break
        deterministically.  For an **even** trial count the *lower* middle
        trial (index ``(n - 1) // 2``) is reported: the result is always an
        actually observed run — never an interpolated value — and the
        choice is pessimistic rather than optimistic.  One trial reports
        itself; two trials report the weaker one.
        """
        if not self.trials:
            raise ValueError("no trials recorded")
        ranked = sorted(self.trials, key=lambda m: (m.f1, m.precision, m.recall))
        return ranked[(len(ranked) - 1) // 2]

    @property
    def mean_f1(self) -> float:
        return float(np.mean([m.f1 for m in self.trials]))

    @property
    def std_f1(self) -> float:
        return float(np.std([m.f1 for m in self.trials]))

    @property
    def median_runtime(self) -> float:
        return float(np.median(self.runtimes)) if self.runtimes else 0.0


def run_trials(
    method: MethodFn,
    bundle: DatasetBundle,
    training_fraction: float,
    num_trials: int = 3,
    sampling_fraction: float = 0.2,
    seed: int = 0,
    warmup: bool = False,
) -> ExperimentResult:
    """Evaluate ``method`` over ``num_trials`` random splits.

    ``method`` receives the bundle, a fresh split, and a per-trial RNG and
    must return the set of cells it predicts to be erroneous.  Predictions
    are scored on the split's test cells only.

    ``warmup`` runs the method once on an extra split before the timed
    trials, untimed and unscored.  Use it when measuring steady-state
    runtime of methods with one-time *process-level* costs — lazy imports,
    module-level index construction, OS page-cache effects.  Methods
    construct a fresh detector per trial, so repeated prediction on one
    fitted detector is measured by ``benchmarks/bench_feature_engine.py``
    instead, which attaches its own feature cache.  The timed trials use
    the same generator stream as a non-warmup run, so metrics stay
    comparable across the two modes.
    """
    result = ExperimentResult()
    true_errors = bundle.error_cells
    generators = spawn_generators(seed, num_trials + (1 if warmup else 0))
    if warmup:
        warm_gen = generators.pop()
        warm_split = make_split(
            bundle, training_fraction, sampling_fraction=sampling_fraction, rng=warm_gen
        )
        method(bundle, warm_split, warm_gen)
    for gen in generators:
        split = make_split(
            bundle, training_fraction, sampling_fraction=sampling_fraction, rng=gen
        )
        with Timer() as timer:
            predicted = method(bundle, split, gen)
        result.runtimes.append(timer.elapsed)
        result.trials.append(
            evaluate_predictions(predicted, true_errors, split.test_cells)
        )
    return result
