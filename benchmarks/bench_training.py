"""Training-core performance: fused numpy kernels vs the autodiff graph.

The reference trainer (:class:`repro.core.training.GraphTrainer`) runs the
hand-rolled autodiff stack (:mod:`repro.nn.tensor`) — per-op Python
dispatch, one graph node per elementary numpy call.  The fused trainer
replays the *same* elementary operations as minibatch kernels with
preallocated buffers (:mod:`repro.nn.backends.numpy_backend`), so at
float64 the two are bit-for-bit interchangeable and the speedup is pure
dispatch/allocation overhead removed.

Gates:

- ``test_fused_training_speedup`` — a cold ``train_model`` run on the
  fused kernels is **≥5× faster** than on the reference trainer at bench
  scale, with **bit-identical** final parameters and loss history;
- ``test_fused_bit_identical_at_default_widths`` — at the default
  detector model's branch widths (``char`` and ``word`` 16, ``tuple`` 32)
  the fused trainer runs two branch stacks, one of them two branches
  whose joint columns are not adjacent, and still trains bit-identically
  to the graph (the timed run's three 8-wide branches form one stack);
- ``test_fused_predict_bit_identical`` — the fused prediction path matches
  the graph forward bit-for-bit (the path the golden metrics pin).

The bench scale mirrors the paper's few-shot regime: a few hundred
examples, branch widths at the benchmark harness's ``embedding_dim=8``,
and small minibatches (HoloDetect trains with batch size 5 — §6.1), which
is exactly where per-step Python overhead dominates.  The speedup gate is
measured in **process CPU time** (best of three interleaved rounds) so
noisy-neighbour contention on shared CI runners cannot skew the ratio in
either direction; wall-clock is reported alongside and matches on a quiet
machine.  The measured numbers are written as JSON (to
``bench_training.json`` in the working directory) so CI archives them as
an artifact.

Run with ``pytest benchmarks/bench_training.py -s`` to see the table.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from conftest import print_table, write_results

from repro.core.model import JointModel
from repro.core.training import GraphTrainer, TrainerConfig, train_model
from repro.features.pipeline import CellFeatures
from repro.nn.backends.numpy_backend import KERNELS

#: The two trainers, by the names the results table and JSON use.
_TRAINERS = {"reference": GraphTrainer, "numpy": KERNELS.joint_trainer}

_RESULTS_PATH = Path("bench_training.json")

#: Optimiser steps of each timed run, and the speedup gate.
_STEPS = 800
_MIN_SPEEDUP = 5.0

_N = 400
_NUMERIC_DIM = 8
_BRANCH_DIMS = {"char": 8, "tuple": 8, "word": 8}
#: The default detector model's branch widths (``embedding_dim=16``).
_DEFAULT_BRANCH_DIMS = {"char": 16, "tuple": 32, "word": 16}
_TRAIN = dict(epochs=40, batch_size=8, min_steps=_STEPS, seed=3)


def _build(
    seed: int = 1, branch_dims: dict[str, int] = _BRANCH_DIMS
) -> tuple[JointModel, CellFeatures, np.ndarray]:
    """A fresh synthetic training problem at bench scale.

    Synthetic features keep the measurement pure training-core: no dataset
    generation, featurisation, or embedding fits in the timed region.
    """
    rng = np.random.default_rng(0)
    features = CellFeatures(
        numeric=rng.normal(size=(_N, _NUMERIC_DIM)),
        branches={k: rng.normal(size=(_N, d)) for k, d in branch_dims.items()},
    )
    labels = rng.integers(0, 2, size=_N)
    model = JointModel(
        _NUMERIC_DIM,
        branch_dims,
        hidden_dim=16,
        dropout=0.2,
        rng=np.random.default_rng(seed),
    )
    return model, features, labels


def _timed_train(trainer: str) -> tuple[JointModel, list, float, float]:
    """Train a fresh model; returns ``(model, history, wall_s, cpu_s)``."""
    model, features, labels = _build()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    history = train_model(
        model, features, labels, TrainerConfig(**_TRAIN),
        trainer_factory=_TRAINERS[trainer],
    )
    return (
        model,
        history,
        time.perf_counter() - wall0,
        time.process_time() - cpu0,
    )


def _warm_up() -> None:
    """Initialise BLAS threading / allocator state outside the timed region."""
    for factory in _TRAINERS.values():
        model, features, labels = _build()
        train_model(
            model, features, labels,
            TrainerConfig(epochs=2, batch_size=32, min_steps=8, seed=3),
            trainer_factory=factory,
        )


def test_fused_training_speedup():
    _warm_up()
    # Interleave the rounds and keep the best of each so a scheduler noise
    # spike in any single round cannot skew the ratio either way.
    graph_wall = graph_cpu = fused_wall = fused_cpu = float("inf")
    for _ in range(4):
        graph_model, graph_history, wall_s, cpu_s = _timed_train("reference")
        graph_wall, graph_cpu = min(graph_wall, wall_s), min(graph_cpu, cpu_s)
        fused_model, fused_history, wall_s, cpu_s = _timed_train("numpy")
        fused_wall, fused_cpu = min(fused_wall, wall_s), min(fused_cpu, cpu_s)

    wall_speedup = graph_wall / fused_wall
    cpu_speedup = graph_cpu / fused_cpu
    identical = all(
        np.array_equal(a, b)
        for a, b in zip(graph_model.state_arrays(), fused_model.state_arrays())
    )
    print_table(
        "Cold training: autodiff graph vs fused numpy kernels",
        ["trainer", "wall (s)", "cpu (s)", "speedup (cpu)", "bit-identical"],
        [
            ["reference", f"{graph_wall:.3f}", f"{graph_cpu:.3f}", "1.00x", "—"],
            [
                "numpy",
                f"{fused_wall:.3f}",
                f"{fused_cpu:.3f}",
                f"{cpu_speedup:.2f}x",
                identical,
            ],
        ],
    )
    write_results(
        _RESULTS_PATH,
        "cold_training",
        {
            "steps": _STEPS,
            "graph_wall_seconds": round(graph_wall, 4),
            "fused_wall_seconds": round(fused_wall, 4),
            "graph_cpu_seconds": round(graph_cpu, 4),
            "fused_cpu_seconds": round(fused_cpu, 4),
            "wall_speedup": round(wall_speedup, 2),
            "cpu_speedup": round(cpu_speedup, 2),
            "bit_identical": identical,
        },
    )
    assert identical, "fused float64 training must be bit-identical to the graph"
    assert graph_history == fused_history, "loss history diverged"
    assert cpu_speedup >= _MIN_SPEEDUP, (
        f"fused kernels only {cpu_speedup:.2f}x faster (gate: {_MIN_SPEEDUP}x)"
    )


def test_fused_bit_identical_at_default_widths():
    histories, models = [], []
    for factory in _TRAINERS.values():
        model, features, labels = _build(branch_dims=_DEFAULT_BRANCH_DIMS)
        histories.append(train_model(
            model, features, labels,
            TrainerConfig(epochs=2, batch_size=8, min_steps=120, seed=3),
            trainer_factory=factory,
        ))
        models.append(model)
    graph_model, fused_model = models
    assert histories[0] == histories[1], "loss history diverged"
    for a, b in zip(graph_model.state_arrays(), fused_model.state_arrays()):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_fused_predict_bit_identical():
    model, features, labels = _build()
    train_model(
        model, features, labels,
        TrainerConfig(epochs=2, batch_size=32, min_steps=8, seed=3),
    )
    graph_logits = model.forward(features).numpy()
    fused_logits = KERNELS.predict_logits(model, features)
    assert np.array_equal(graph_logits, fused_logits)
