"""Neural-network substrate: reverse-mode autograd over numpy.

HoloDetect's representation layers (highway networks, Fig. 2B), classifier M
(Fig. 2C), and the ADAM optimiser were built on PyTorch in the original
system.  No deep-learning framework is available offline, so this package
implements that stack from scratch, and no more of it than its callers run:

- :mod:`repro.nn.backends` — the training core: fused minibatch BLAS
  kernels that every fit and prediction of the joint model runs on,
- :mod:`repro.nn.tensor` — a :class:`Tensor` with reverse-mode automatic
  differentiation (topological-sort backprop, broadcasting-aware) over the
  few ops the models use,
- :mod:`repro.nn.layers` — ``Module`` containers and the layers the paper
  uses (Linear, ReLU, Dropout, Highway, Sequential),
- :mod:`repro.nn.loss` — softmax cross-entropy and logistic losses,
- :mod:`repro.nn.optim` — ADAM [36].

The autodiff graph serves as the kernels' bit-identity reference
(:meth:`repro.core.model.JointModel.forward`,
:class:`repro.core.training.GraphTrainer`) and as the trainer of the LR
baseline (:class:`repro.baselines.LogisticRegressionDetector`).  Gradients
are verified against finite differences by property-based tests.
"""

from repro.nn.tensor import Tensor, concat
from repro.nn.layers import Dropout, Highway, Linear, Module, ReLU, Sequential
from repro.nn.loss import binary_cross_entropy_with_logits, softmax_cross_entropy
from repro.nn.optim import Adam

__all__ = [
    "Tensor",
    "concat",
    "Module",
    "Linear",
    "ReLU",
    "Dropout",
    "Highway",
    "Sequential",
    "softmax_cross_entropy",
    "binary_cross_entropy_with_logits",
    "Adam",
]
