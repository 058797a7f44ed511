"""Shared utilities: deterministic RNG, timing, spec files (:mod:`.specfile`)."""

from repro.utils.rng import as_generator, spawn_generators
from repro.utils.timing import Timer

__all__ = ["as_generator", "spawn_generators", "Timer"]
