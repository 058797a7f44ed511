"""Neural-network substrate: reverse-mode autograd over numpy.

HoloDetect's representation layers (highway networks, Fig. 2B), classifier M
(Fig. 2C), and the ADAM optimiser were built on PyTorch in the original
system.  No deep-learning framework is available offline, so this package
implements the same mathematical stack from scratch:

- :mod:`repro.nn.tensor` — a :class:`Tensor` with reverse-mode automatic
  differentiation (topological-sort backprop, broadcasting-aware),
- :mod:`repro.nn.layers` — ``Module`` containers and the layers the paper
  uses (Linear, ReLU, Sigmoid, Dropout, Highway, Sequential),
- :mod:`repro.nn.loss` — softmax cross-entropy and logistic losses,
- :mod:`repro.nn.optim` — ADAM [36] and SGD,
- :mod:`repro.nn.backends` — the training core: fused minibatch BLAS
  kernels that every fit and prediction runs on, bit-identical at float64
  to the autodiff graph above, which stays as their reference.

Gradients are verified against finite differences by property-based tests.
"""

from repro.nn.tensor import Tensor, concat, no_grad
from repro.nn.layers import (
    Dropout,
    Highway,
    Linear,
    Module,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.nn.loss import binary_cross_entropy_with_logits, softmax_cross_entropy
from repro.nn.optim import SGD, Adam, Optimizer

__all__ = [
    "Tensor",
    "concat",
    "no_grad",
    "Module",
    "Linear",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "Dropout",
    "Highway",
    "Sequential",
    "softmax_cross_entropy",
    "binary_cross_entropy_with_logits",
    "Optimizer",
    "Adam",
    "SGD",
]
