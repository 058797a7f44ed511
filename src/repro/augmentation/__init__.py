"""Data augmentation: the learned noisy channel (§5).

The noisy channel H = (Φ, Π): a set of string transformations Φ learned from
example (clean, dirty) pairs via hierarchical pattern matching (Algorithm 1),
and a policy Π — a conditional distribution over Φ given an input value —
estimated empirically (Algorithms 2–3).  Algorithm 4 applies the channel to
correct training examples to synthesise error examples until the training
set is balanced.

When labelled errors are scarce, the unsupervised Naïve Bayes repair model
(§5.4) supplies weakly-supervised example pairs instead.
"""

from repro.augmentation.transformations import Transformation, TransformationKind
from repro.augmentation.learn import (
    empirical_distribution,
    learn_transformations,
)
from repro.augmentation.policy import CompositePolicy, Policy, UniformPolicy
from repro.augmentation.augment import AugmentationResult, augment_training_set
from repro.augmentation.naive_bayes import NaiveBayesRepairModel, channel_examples

__all__ = [
    "Transformation",
    "TransformationKind",
    "learn_transformations",
    "empirical_distribution",
    "Policy",
    "UniformPolicy",
    "CompositePolicy",
    "augment_training_set",
    "AugmentationResult",
    "NaiveBayesRepairModel",
    "channel_examples",
]
