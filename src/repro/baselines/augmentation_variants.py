"""Augmentation-strategy ablations (Table 4).

- ``RandomChannelPolicy`` — "Rand. Trans.": augmentation with completely
  random transformations (generic typo channels and random value garbling)
  *not* learned from the data;
- ``uniform_policy_from`` — "AUG w/o Policy": the transformation set Φ is
  learned from the data with Algorithm 1, but transformations are applied
  uniformly at random instead of via the learned distribution Π̂.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.augmentation.naive_bayes import channel_examples
from repro.augmentation.policy import Policy, UniformPolicy
from repro.augmentation.transformations import Transformation
from repro.dataset.table import Dataset
from repro.dataset.training import TrainingSet
from repro.errors.typos import random_typo
from repro.registry import register
from repro.utils.rng import as_generator
from repro.utils.specfile import require_int


class RandomChannelPolicy(Policy):
    """A channel of dataset-agnostic random transformations.

    ``transform`` applies either a random typo channel or a random shuffle /
    truncation of the value — errors of plausible *categories* but with no
    connection to how the dataset's actual errors look.
    """

    def __init__(self, seed: int = 0):
        # Seed the distribution with a placeholder so ``len`` is truthy and
        # Algorithm 4 does not bail out early; sampling is overridden.
        super().__init__({Transformation("", "?"): 1.0})
        self._seed = seed

    def transform(self, value: str, rng=None) -> str | None:
        gen = as_generator(rng)
        choice = int(gen.integers(0, 4))
        if choice == 0:
            return random_typo(value, gen)
        if choice == 1 and len(value) >= 2:
            # Shuffle the characters (misalignment-style garbling).
            chars = list(value)
            gen.shuffle(chars)
            shuffled = "".join(chars)
            return shuffled if shuffled != value else random_typo(value, gen)
        if choice == 2 and len(value) >= 2:
            # Truncate to a random prefix.
            cut = int(gen.integers(1, len(value)))
            return value[:cut]
        return random_typo(value, gen)


def uniform_policy_from(
    dataset: Dataset,
    training: TrainingSet,
    min_error_pairs: int = 10,
    weak_supervision_max_cells: int = 20_000,
) -> UniformPolicy:
    """Learn Φ exactly as AUG does, but discard the distribution Π̂.

    Learns from the detector's example pairs
    (:func:`~repro.augmentation.naive_bayes.channel_examples`: labelled
    errors topped up by Naïve Bayes weak supervision) so that Table 4
    isolates the *policy*, not the transformation set.
    """
    pairs = channel_examples(
        dataset,
        training,
        min_error_pairs=min_error_pairs,
        max_cells=weak_supervision_max_cells,
    )
    return UniformPolicy(Policy.learn(pairs).transformations)


# --------------------------------------------------------------------- #
# Registry wiring (see repro.augmentation.policy for the contract).
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class RandomChannelConfig:
    """Typed config of the random-channel policy (registry key
    ``random-channel``)."""

    seed: int = 0

    def __post_init__(self) -> None:
        require_int("seed", self.seed, 0)


@register(
    "policy", "random-channel",
    config=RandomChannelConfig,
    description="dataset-agnostic random transformations (Table 4 'Rand. Trans.')",
)
def _random_channel(cfg: RandomChannelConfig) -> RandomChannelPolicy:
    return RandomChannelPolicy(seed=cfg.seed)
