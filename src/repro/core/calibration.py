"""Platt scaling (§4.2).

Classifier scores ``z`` are mapped to calibrated probabilities
``q̂ = σ(a·z + b)`` where the scalars ``a, b`` minimise the negative
log-likelihood on a holdout split of T.  The parameters of Q and M stay
fixed; only ``a`` and ``b`` are learned, by Newton-style full-batch gradient
descent (the problem is 2-parameter convex, so this converges quickly).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.registry import ComponentError, register
from repro.utils.specfile import require_int


class PlattScaler:
    """Two-parameter sigmoid calibration ``q̂ = σ(a·z + b)``."""

    def __init__(self, epochs: int = 100, lr: float = 0.1):
        self.epochs = epochs
        self.lr = lr
        self.a = 1.0
        self.b = 0.0
        self._fitted = False

    def fit(self, scores: np.ndarray, targets: np.ndarray) -> "PlattScaler":
        """Fit on holdout ``scores`` and binary ``targets`` (1 = error).

        Uses the Platt prior-corrected targets ``(n+ + 1)/(n+ + 2)`` and
        ``1/(n- + 2)`` which regularise the fit when the holdout is tiny —
        the standard trick from Platt's original paper [46], essential here
        because holdouts of few-shot training sets are small.
        """
        scores = np.asarray(scores, dtype=np.float64).ravel()
        targets = np.asarray(targets, dtype=np.float64).ravel()
        if scores.shape != targets.shape:
            raise ValueError("scores and targets must have the same shape")
        if scores.size == 0:
            # Degenerate holdout: keep the identity calibration.
            self._fitted = True
            return self
        n_pos = float(targets.sum())
        n_neg = float(targets.size - n_pos)
        soft_pos = (n_pos + 1.0) / (n_pos + 2.0)
        soft_neg = 1.0 / (n_neg + 2.0)
        soft = np.where(targets > 0.5, soft_pos, soft_neg)
        a, b = 1.0, 0.0
        for _ in range(self.epochs):
            z = a * scores + b
            p = 1.0 / (1.0 + np.exp(-np.clip(z, -60, 60)))
            residual = p - soft
            grad_a = float((residual * scores).mean())
            grad_b = float(residual.mean())
            a -= self.lr * grad_a
            b -= self.lr * grad_b
        self.a, self.b = a, b
        self._fitted = True
        return self

    def probability(self, scores: np.ndarray) -> np.ndarray:
        """Calibrated error probability for raw scores."""
        if not self._fitted:
            raise RuntimeError("PlattScaler used before fit()")
        z = self.a * np.asarray(scores, dtype=np.float64) + self.b
        return 1.0 / (1.0 + np.exp(-np.clip(z, -60, 60)))


# --------------------------------------------------------------------- #
# Registry wiring: calibrators are "calibrator" components so a
# DetectorSpec can choose (and parameterise) the calibration step.
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class PlattCalibratorConfig:
    """Typed config of the Platt scaler (registry key ``platt``)."""

    epochs: int = 100
    lr: float = 0.1

    def __post_init__(self) -> None:
        require_int("epochs", self.epochs, 1)
        if not self.lr > 0:
            raise ValueError(f"lr must be positive, got {self.lr!r}")


@register(
    "calibrator", "platt",
    config=PlattCalibratorConfig,
    description="two-parameter sigmoid calibration on a training holdout",
)
def _platt(cfg: PlattCalibratorConfig) -> PlattScaler:
    return PlattScaler(epochs=cfg.epochs, lr=cfg.lr)


@register(
    "calibrator", "none",
    description="identity calibration: raw sigmoid scores pass through",
)
def _identity(params) -> PlattScaler:
    if params:
        raise ComponentError(f"takes no parameters, got {sorted(params)}")
    # A PlattScaler fitted on an empty holdout keeps a=1, b=0 — identity.
    scaler = PlattScaler(epochs=0)
    return scaler
