"""The augmentation policy Π (Algorithm 3).

Π(v) is the empirical distribution of Algorithm 2 restricted to
transformations applicable to ``v`` (``src`` a substring of ``v``, or an
ADD) and re-normalised.  Sampling from Π(v) plus a uniformly random firing
position realises the paper's generative noisy-channel process.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.augmentation.learn import empirical_distribution, learn_from_pairs
from repro.augmentation.transformations import Transformation
from repro.registry import ComponentError, register
from repro.utils.rng import as_generator


class Policy:
    """Learned policy: empirical distribution + conditional re-normalisation."""

    def __init__(self, distribution: Mapping[Transformation, float]):
        total = float(sum(distribution.values()))
        if distribution and not np.isclose(total, 1.0, atol=1e-6):
            # Tolerate unnormalised input — normalise defensively.
            distribution = {t: p / total for t, p in distribution.items()}
        self._dist: dict[Transformation, float] = dict(distribution)
        self._transformations = list(self._dist)

    @classmethod
    def learn(cls, pairs: Iterable[tuple[str, str]]) -> "Policy":
        """Learn Φ and Π̂ from example pairs ``L = {(v*, v)}`` (Algorithms 1+2)."""
        return cls(empirical_distribution(learn_from_pairs(pairs)))

    @property
    def transformations(self) -> list[Transformation]:
        """The learned transformation set Φ."""
        return list(self._transformations)

    def __len__(self) -> int:
        return len(self._dist)

    def probability(self, phi: Transformation) -> float:
        """Unconditional empirical probability ``p(ϕ)``."""
        return self._dist.get(phi, 0.0)

    def conditional(self, value: str) -> dict[Transformation, float]:
        """Algorithm 3: ``Π̂(v) = P(Φ_v | v)`` re-normalised over applicable Φ."""
        applicable = {t: p for t, p in self._dist.items() if t.applicable(value)}
        mass = sum(applicable.values())
        if mass == 0:
            return {}
        return {t: p / mass for t, p in applicable.items()}

    def top_k(self, value: str, k: int) -> list[tuple[Transformation, float]]:
        """The ``k`` most probable entries of Π̂(v), for inspection (Fig. 8).

        ``k`` must be at least 1: a slice bound of 0 or below would return
        no entry or drop entries from the end.
        """
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        conditional = self.conditional(value)
        ranked = sorted(conditional.items(), key=lambda item: (-item[1], str(item[0])))
        return ranked[:k]

    def sample(self, value: str, rng: int | np.random.Generator | None = None) -> Transformation | None:
        """Draw ``ϕ ~ Π̂(v)``; ``None`` when no transformation applies."""
        conditional = self.conditional(value)
        if not conditional:
            return None
        gen = as_generator(rng)
        transformations = list(conditional)
        probs = np.array([conditional[t] for t in transformations])
        probs = probs / probs.sum()
        idx = int(gen.choice(len(transformations), p=probs))
        return transformations[idx]

    def transform(self, value: str, rng: int | np.random.Generator | None = None) -> str | None:
        """Sample a transformation and apply it once at a random position."""
        gen = as_generator(rng)
        phi = self.sample(value, gen)
        if phi is None:
            return None
        return phi.apply(value, gen)


class CompositePolicy(Policy):
    """Extension: a channel that applies up to ``max_edits`` transformations.

    The paper deliberately limits its policies to a single transformation
    per example (§7: richer policies need expensive search) and leaves
    multi-edit channels as future work.  This extension composes the
    learned single-edit policy: after the first edit, each further edit is
    applied with probability ``continue_probability`` (a geometric length
    distribution), re-conditioning Π̂ on the intermediate value each time.

    Useful when a dataset's errors stack (e.g. a typo inside a swapped
    value); for single-error datasets it reduces to the base behaviour in
    expectation as ``continue_probability → 0``.
    """

    def __init__(self, base: Policy, max_edits: int = 3, continue_probability: float = 0.3):
        if max_edits < 1:
            raise ValueError("max_edits must be >= 1")
        if not 0.0 <= continue_probability < 1.0:
            raise ValueError("continue_probability must be in [0, 1)")
        super().__init__({t: base.probability(t) for t in base.transformations})
        self.max_edits = max_edits
        self.continue_probability = continue_probability

    def transform(self, value: str, rng: int | np.random.Generator | None = None) -> str | None:
        gen = as_generator(rng)
        current = super().transform(value, gen)
        if current is None:
            return None
        edits = 1
        while edits < self.max_edits and gen.random() < self.continue_probability:
            next_value = super().transform(current, gen)
            if next_value is None:
                break
            current = next_value
            edits += 1
        # Guard: composition may round-trip back to the original value.
        return current if current != value else None


class UniformPolicy(Policy):
    """Ablation policy: learned Φ, but uniform over applicable transformations.

    This is the "AUG w/o Policy" variant of Table 4 — it discards the
    empirical distribution and picks any valid transformation uniformly.
    """

    def __init__(self, transformations: Sequence[Transformation]):
        unique = list(dict.fromkeys(transformations))
        if unique:
            super().__init__({t: 1.0 / len(unique) for t in unique})
        else:
            super().__init__({})

    def conditional(self, value: str) -> dict[Transformation, float]:
        applicable = [t for t in self._transformations if t.applicable(value)]
        if not applicable:
            return {}
        p = 1.0 / len(applicable)
        return {t: p for t in applicable}


# --------------------------------------------------------------------- #
# Registry wiring: augmentation policies are "policy" components.  A
# component builds to one of three shapes the detector understands:
#
# - ``None`` — learn the policy from the data (the AUG default);
# - a :class:`Policy` instance — use it verbatim as the override;
# - a callable ``(learned: Policy) -> Policy`` — learn first, then wrap
#   (how the Table 4 "AUG w/o Policy" uniform ablation is expressed).
# --------------------------------------------------------------------- #


@register(
    "policy", "learned",
    description="learn (Φ, Π̂) from the labelled errors (the AUG default)",
)
def _learned_policy(params) -> None:
    if params:
        raise ComponentError(f"takes no parameters, got {sorted(params)}")
    return None


@register(
    "policy", "uniform",
    description="learned Φ, uniform over applicable transformations (Table 4)",
)
def _uniform_policy(params):
    if params:
        raise ComponentError(f"takes no parameters, got {sorted(params)}")
    return lambda learned: UniformPolicy(learned.transformations)
