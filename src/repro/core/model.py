"""The joint wide-and-deep model (Fig. 2, Fig. 7, Appendix A.1).

Each learnable branch processes one embedding block through a two-layer
highway network, a ReLU, and a single-unit dense layer (Fig. 2B) — "so that
the embeddings do not dominate the joint representation".  The branch
scalars are concatenated with the fixed numeric features into the joint
representation, which classifier M (dropout + two-layer network, Fig. 2C)
maps to two logits: class 0 = correct, class 1 = error.

The whole network is trained end-to-end (§4.1: learnable layers are trained
jointly with M).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.features.pipeline import CellFeatures
from repro.nn import Dropout, Highway, Linear, Module, ReLU, Sequential, Tensor, concat
from repro.nn.backends.numpy_backend import KERNELS
from repro.utils.rng import as_generator

#: Class indices of the two-logit output.
CORRECT_CLASS = 0
ERROR_CLASS = 1


class JointModel(Module):
    """Representation model Q's learnable layers + classifier M."""

    def __init__(
        self,
        numeric_dim: int,
        branch_dims: Mapping[str, int],
        hidden_dim: int = 32,
        dropout: float = 0.2,
        rng=None,
    ):
        super().__init__()
        gen = as_generator(rng)
        self.numeric_dim = numeric_dim
        self.branch_names = sorted(branch_dims)
        self.branches = [
            Sequential(
                Highway(branch_dims[name], rng=gen),
                Highway(branch_dims[name], rng=gen),
                ReLU(),
                Linear(branch_dims[name], 1, rng=gen),
            )
            for name in self.branch_names
        ]
        joint_dim = numeric_dim + len(self.branch_names)
        if joint_dim == 0:
            raise ValueError("model needs at least one feature")
        self.classifier = Sequential(
            Dropout(dropout, rng=gen),
            Linear(joint_dim, hidden_dim, rng=gen),
            ReLU(),
            Linear(hidden_dim, 2, rng=gen),
        )

    def kernel_layers(self) -> tuple:
        """The layers the fused kernels run: ``(branches, dropout, hidden, output)``.

        ``branches`` holds each branch's two highway layers and its
        single-unit dense layer, in :attr:`branch_names` order; ``dropout``,
        ``hidden`` and ``output`` are classifier M's.  The ReLUs between
        them hold no parameters.
        """
        branches = [(h1, h2, dense) for h1, h2, _, dense in self.branches]
        dropout, hidden, _, output = self.classifier
        return branches, dropout, hidden, output

    def check_batch(self, features: CellFeatures) -> None:
        """Raise ``KeyError`` for a missing branch block and ``ValueError``
        for a numeric block of the wrong width."""
        for name in self.branch_names:
            if name not in features.branches:
                raise KeyError(f"feature batch missing branch {name!r}")
        if self.numeric_dim and features.numeric.shape[1] != self.numeric_dim:
            raise ValueError(
                f"numeric block width {features.numeric.shape[1]} != "
                f"model numeric_dim {self.numeric_dim}"
            )

    def forward(self, features: CellFeatures) -> Tensor:  # type: ignore[override]
        """Two-class logits ``[batch, 2]`` for a feature batch."""
        self.check_batch(features)
        parts = [
            branch(Tensor(features.branches[name]))
            for name, branch in zip(self.branch_names, self.branches)
        ]
        if self.numeric_dim:
            parts.append(Tensor(features.numeric))
        joint = parts[0] if len(parts) == 1 else concat(parts, axis=1)
        return self.classifier(joint)

    def error_scores(self, features: CellFeatures) -> np.ndarray:
        """Uncalibrated error-class score ``z = logit_error - logit_correct``.

        This is the scalar score Platt scaling calibrates.  The forward
        pass runs on the fused numpy kernels, which are bit-identical to
        the autodiff graph (:meth:`forward`) in eval mode at float64.  They
        apply no dropout and build no graph, so scoring leaves the model's
        training mode alone.
        """
        logits = KERNELS.predict_logits(self, features)
        return logits[:, ERROR_CLASS] - logits[:, CORRECT_CLASS]
