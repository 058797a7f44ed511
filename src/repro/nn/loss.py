"""Loss functions.

HoloDetect trains classifier M with a logistic loss over two classes
(Fig. 2C shows a softmax output with logistic loss):
:func:`softmax_cross_entropy`, in :class:`~repro.core.training.GraphTrainer`.
The LR baseline (§6.1) minimises the binary logistic loss,
:func:`binary_cross_entropy_with_logits`.  Both are numerically stable
fused ops.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits [n, k]`` and integer ``targets [n]``.

    Fused log-softmax keeps the computation stable for large logits; the
    backward pass is the classic ``softmax - onehot`` divided by batch size.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError("logits must be 2-D [batch, classes]")
    if targets.shape[0] != logits.shape[0]:
        raise ValueError("targets batch size mismatch")
    data = logits.data
    shifted = data - data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    n = data.shape[0]
    out = Tensor._make(-log_probs[np.arange(n), targets].mean(), (logits,))
    if out.requires_grad:
        probs = np.exp(log_probs)

        def backward():
            grad = probs.copy()
            grad[np.arange(n), targets] -= 1.0
            grad /= n
            logits._accumulate(grad * out.grad)

        out._backward = backward
    return out


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy of sigmoid(``logits``) vs ``targets ∈ [0,1]``.

    Stable formulation ``max(z,0) - z*y + log(1 + exp(-|z|))``.
    """
    targets = np.asarray(targets, dtype=np.float64).reshape(logits.shape)
    z = logits.data
    loss_value = (np.maximum(z, 0.0) - z * targets + np.log1p(np.exp(-np.abs(z)))).mean()
    out = Tensor._make(loss_value, (logits,))
    if out.requires_grad:
        sig = 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))
        n = z.size

        def backward():
            logits._accumulate((sig - targets) / n * out.grad)

        out._backward = backward
    return out
