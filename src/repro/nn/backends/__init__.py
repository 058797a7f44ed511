"""The training core's kernel set.

:class:`~repro.nn.backends.numpy_backend.NumpyBackend` holds the fused
minibatch kernels every fit and prediction runs on: the joint-model
trainer, the eval-mode forward pass, and the FastText SGNS update.  The
trainer and the forward serve :class:`repro.core.model.JointModel` only,
through the layers it hands them.  The autodiff graph
(:class:`repro.core.training.GraphTrainer`,
:meth:`repro.core.model.JointModel.forward`) is their reference semantics,
and the only trainer for any other module
(``train_model(..., trainer_factory=GraphTrainer)``).  Import the kernels
from :mod:`repro.nn.backends.numpy_backend` (its one process-wide
instance is ``KERNELS``).
"""
