"""The random-channel augmentation ablation (Table 4's "Rand. Trans.").

``RandomChannelPolicy`` augments with completely random transformations
(generic typo channels and random value garbling) *not* learned from the
data; a spec selects it as ``policy = { name = "random-channel", seed = 7 }``.
Table 4's other ablation, "AUG w/o Policy" (Φ learned as AUG learns it,
applied uniformly instead of via Π̂), is the ``uniform`` policy component of
:mod:`repro.augmentation.policy`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.augmentation.policy import Policy
from repro.augmentation.transformations import Transformation
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
