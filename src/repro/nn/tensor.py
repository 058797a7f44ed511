"""Reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` records the operation that produced it and its parents;
calling :meth:`Tensor.backward` walks the graph in reverse topological order
accumulating gradients.  Broadcasting in forward ops is undone in the
backward pass by summing gradients over broadcast axes, matching the
semantics of mainstream frameworks.

The op set is intentionally the minimum needed by HoloDetect's models
(affine layers, gates, concatenation of feature branches, reductions and the
pointwise nonlinearities) — but each op is fully general over shapes.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Sequence

import numpy as np


class _GradMode(threading.local):
    """Per-thread autodiff switch: a prediction under :func:`no_grad` on
    one thread (a server's scoring loop, say) must not strip the
    parameters of a model another thread is building."""

    enabled = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction on the calling thread
    (used at prediction time)."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, reversing numpy broadcasting."""
    # Remove leading broadcast axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were size-1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A numpy array plus gradient and backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        name: str | None = None,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and _grad_mode.enabled
        self.grad: np.ndarray | None = None
        self._backward: Callable[[], None] | None = None
        self._parents = _parents if self.requires_grad else ()
        self.name = name

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        """The underlying array (detached view; do not mutate during training)."""
        return self.data

    # ------------------------------------------------------------------ #
    # Graph helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def _lift(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def _make(self, data: np.ndarray, parents: Sequence["Tensor"]) -> "Tensor":
        requires = _grad_mode.enabled and any(p.requires_grad for p in parents)
        return Tensor(data, requires_grad=requires, _parents=tuple(parents) if requires else ())

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #

    def __add__(self, other) -> "Tensor":
        other = self._lift(other)
        out = self._make(self.data + other.data, (self, other))
        if out.requires_grad:

            def backward():
                if self.requires_grad:
                    self._accumulate(out.grad)
                if other.requires_grad:
                    other._accumulate(out.grad)

            out._backward = backward
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = self._make(-self.data, (self,))
        if out.requires_grad:

            def backward():
                self._accumulate(-out.grad)

            out._backward = backward
        return out

    def __sub__(self, other) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other) -> "Tensor":
        return self._lift(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._lift(other)
        out = self._make(self.data * other.data, (self, other))
        if out.requires_grad:

            def backward():
                if self.requires_grad:
                    self._accumulate(out.grad * other.data)
                if other.requires_grad:
                    other._accumulate(out.grad * self.data)

            out._backward = backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._lift(other)
        out = self._make(self.data / other.data, (self, other))
        if out.requires_grad:

            def backward():
                if self.requires_grad:
                    self._accumulate(out.grad / other.data)
                if other.requires_grad:
                    other._accumulate(-out.grad * self.data / (other.data**2))

            out._backward = backward
        return out

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out = self._make(self.data**exponent, (self,))
        if out.requires_grad:

            def backward():
                self._accumulate(out.grad * exponent * self.data ** (exponent - 1))

            out._backward = backward
        return out

    def matmul(self, other: "Tensor") -> "Tensor":
        other = self._lift(other)
        out = self._make(self.data @ other.data, (self, other))
        if out.requires_grad:

            def backward():
                if self.requires_grad:
                    self._accumulate(out.grad @ other.data.T)
                if other.requires_grad:
                    other._accumulate(self.data.T @ out.grad)

            out._backward = backward
        return out

    __matmul__ = matmul

    # ------------------------------------------------------------------ #
    # Nonlinearities
    # ------------------------------------------------------------------ #

    def relu(self) -> "Tensor":
        out = self._make(np.maximum(self.data, 0.0), (self,))
        if out.requires_grad:
            mask = (self.data > 0).astype(np.float64)

            def backward():
                self._accumulate(out.grad * mask)

            out._backward = backward
        return out

    def sigmoid(self) -> "Tensor":
        sig = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))
        out = self._make(sig, (self,))
        if out.requires_grad:

            def backward():
                self._accumulate(out.grad * sig * (1.0 - sig))

            out._backward = backward
        return out

    def tanh(self) -> "Tensor":
        value = np.tanh(self.data)
        out = self._make(value, (self,))
        if out.requires_grad:

            def backward():
                self._accumulate(out.grad * (1.0 - value**2))

            out._backward = backward
        return out

    def exp(self) -> "Tensor":
        value = np.exp(np.clip(self.data, -700.0, 700.0))
        out = self._make(value, (self,))
        if out.requires_grad:

            def backward():
                self._accumulate(out.grad * value)

            out._backward = backward
        return out

    def log(self) -> "Tensor":
        out = self._make(np.log(self.data), (self,))
        if out.requires_grad:

            def backward():
                self._accumulate(out.grad / self.data)

            out._backward = backward
        return out

    # ------------------------------------------------------------------ #
    # Shape ops and reductions
    # ------------------------------------------------------------------ #

    def reshape(self, *shape: int) -> "Tensor":
        out = self._make(self.data.reshape(*shape), (self,))
        if out.requires_grad:
            original = self.data.shape

            def backward():
                self._accumulate(out.grad.reshape(original))

            out._backward = backward
        return out

    def transpose(self) -> "Tensor":
        out = self._make(self.data.T, (self,))
        if out.requires_grad:

            def backward():
                self._accumulate(out.grad.T)

            out._backward = backward
        return out

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        out = self._make(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        if out.requires_grad:
            shape = self.data.shape

            def backward():
                grad = out.grad
                if axis is not None and not keepdims:
                    grad = np.expand_dims(grad, axis)
                self._accumulate(np.broadcast_to(grad, shape))

            out._backward = backward
        return out

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Row gather (``out[i] = self[indices[i]]``) with scatter-add backward."""
        indices = np.asarray(indices, dtype=np.int64)
        out = self._make(self.data[indices], (self,))
        if out.requires_grad:
            shape = self.data.shape

            def backward():
                grad = np.zeros(shape, dtype=np.float64)
                np.add.at(grad, indices, out.grad)
                self._accumulate(grad)

            out._backward = backward
        return out

    # ------------------------------------------------------------------ #
    # Backpropagation
    # ------------------------------------------------------------------ #

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Accumulate gradients of ``self`` w.r.t. every reachable leaf.

        ``grad`` defaults to ones (for scalar losses this is the usual 1.0).
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = (
            np.ones_like(self.data) if grad is None else np.asarray(grad, dtype=np.float64)
        )
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward()

    def zero_grad(self) -> None:
        self.grad = None


def concat(tensors: Iterable[Tensor], axis: int = 1) -> Tensor:
    """Concatenate tensors along ``axis`` (used to join feature branches)."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat needs at least one tensor")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    requires = _grad_mode.enabled and any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=requires, _parents=tuple(tensors) if requires else ())
    if requires:
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward():
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if tensor.requires_grad:
                    slicer = [slice(None)] * data.ndim
                    slicer[axis] = slice(start, stop)
                    tensor._accumulate(out.grad[tuple(slicer)])

        out._backward = backward
    return out
