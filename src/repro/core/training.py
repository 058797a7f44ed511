"""Minibatch training loop for the joint model.

The paper trains for 500 epochs with batch size 5 using ADAM (§6.1); our
defaults are scaled down for CPU-only runtime but fully configurable — the
loss surface is identical, only the budget differs.

The loop is split in two: this module owns everything that defines a run —
label validation, the epoch/permutation/minibatch schedule, the step-count
floor, loss history — while the per-step math (forward, backward, optimiser
update) comes from a *trainer*.  By default that is the fused numpy trainer
(:class:`repro.nn.backends.numpy_backend.NumpyBackend`), which trains a
:class:`~repro.core.model.JointModel` and nothing else; :class:`GraphTrainer`
is the autodiff-graph reference it is bit-identical to at float64, and the
only trainer for any other module (``trainer_factory=GraphTrainer``).
Because the loop draws the batch permutations from one generator, both
trainers see the *same* batch sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.model import JointModel
from repro.features.pipeline import CellFeatures
from repro.nn.backends.numpy_backend import KERNELS
from repro.nn.loss import softmax_cross_entropy
from repro.nn.optim import Adam
from repro.utils.rng import as_generator


@dataclass
class TrainerConfig:
    """Knobs of the training loop.

    ``min_steps`` puts a floor on the total number of optimiser steps:
    few-shot training sets are small, so a fixed epoch count can mean very
    few updates and high seed-to-seed variance.  When the configured epochs
    yield fewer steps than the floor, the epoch count is raised.
    """

    epochs: int = 40
    batch_size: int = 32
    lr: float = 1e-3
    weight_decay: float = 1e-5
    min_steps: int = 0
    seed: int = 0


def _slice_features(features: CellFeatures, idx: np.ndarray) -> CellFeatures:
    return CellFeatures(
        numeric=features.numeric[idx],
        branches={k: v[idx] for k, v in features.branches.items()},
    )


class GraphTrainer:
    """The reference trainer: one step = zero_grad → autodiff-graph forward
    → loss → backward → per-parameter :class:`~repro.nn.optim.Adam`.

    Intentionally slow; the fused trainer is asserted bit-identical to it
    (``tests/test_nn_backends.py``, ``benchmarks/bench_training.py``).
    """

    def __init__(self, model, features, labels, config):
        self._model = model
        self._features = features
        self._labels = np.asarray(labels, dtype=np.int64)
        self._optimizer = Adam(
            model.parameters(), lr=config.lr, weight_decay=config.weight_decay
        )

    def step(self, idx: np.ndarray) -> float:
        self._optimizer.zero_grad()
        logits = self._model(_slice_features(self._features, idx))
        loss = softmax_cross_entropy(logits, self._labels[idx])
        loss.backward()
        self._optimizer.step()
        return loss.item()

    def finalize(self) -> None:
        """Nothing to write back: the graph trains the model in place."""


def train_model(
    model: JointModel,
    features: CellFeatures,
    labels: np.ndarray,
    config: TrainerConfig | None = None,
    trainer_factory=None,
) -> list[float]:
    """Train ``model`` on a fixed feature batch; returns per-epoch mean loss.

    ``labels`` are class indices (0 = correct, 1 = error).
    ``trainer_factory(model, features, labels, config)`` builds the
    per-step trainer: the fused kernels by default, which take a
    :class:`~repro.core.model.JointModel` only (any other module raises
    ``TypeError``), or :class:`GraphTrainer` to run the autodiff reference.
    """
    if trainer_factory is None:
        if not isinstance(model, JointModel):
            raise TypeError(
                f"the fused kernels train a JointModel, not "
                f"{type(model).__name__}; pass trainer_factory=GraphTrainer "
                f"to train it on the autodiff graph"
            )
        trainer_factory = KERNELS.joint_trainer
    config = config or TrainerConfig()
    labels = np.asarray(labels, dtype=np.int64)
    n = features.batch_size
    if labels.shape[0] != n:
        raise ValueError("labels length must match feature batch size")
    if n == 0:
        raise ValueError("cannot train on an empty batch")
    gen = as_generator(config.seed)
    model.train()
    trainer = trainer_factory(model, features, labels, config)
    history: list[float] = []
    steps_per_epoch = max(1, -(-n // config.batch_size))  # ceil division
    epochs = max(config.epochs, -(-config.min_steps // steps_per_epoch))
    for _ in range(epochs):
        order = gen.permutation(n)
        epoch_loss = 0.0
        batches = 0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            epoch_loss += trainer.step(idx)
            batches += 1
        history.append(epoch_loss / max(batches, 1))
    trainer.finalize()
    model.eval()
    return history
