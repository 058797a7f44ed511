"""The name of the training core, for callers that record which kernels ran.

Training and scoring run on one kernel set: the fused numpy kernels of
:class:`repro.nn.backends.numpy_backend.NumpyBackend`, which are
bit-identical at float64 to the autodiff graph (:mod:`repro.nn.tensor`).
There is nothing to select; see "Training core" in
``docs/architecture.md``.
"""

from __future__ import annotations

#: Name of the one kernel set training and scoring run on.
DEFAULT_BACKEND = "numpy"


def default_backend_name() -> str:
    """The name of the kernel set in effect (always :data:`DEFAULT_BACKEND`)."""
    return DEFAULT_BACKEND
