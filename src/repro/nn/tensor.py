"""Reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` records the operation that produced it and its parents;
calling :meth:`Tensor.backward` walks the graph in reverse topological order
accumulating gradients.  Broadcasting in forward ops is undone in the
backward pass by summing gradients over broadcast axes, matching the
semantics of mainstream frameworks.

The op set is exactly what its three callers reach: ``+``, ``-``, ``*``,
``@``, ``relu``, ``sigmoid`` and :func:`concat`.  Those callers are
:meth:`repro.core.model.JointModel.forward` and
:class:`repro.core.training.GraphTrainer`, the reference the fused kernels
(:mod:`repro.nn.backends.numpy_backend`) are bit-identical to, and the LR
baseline's trainer (:class:`repro.baselines.LogisticRegressionDetector`).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np


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

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward: Callable[[], None] | None = None
        self._parents = _parents if self.requires_grad else ()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

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

    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"]) -> "Tensor":
        """A graph node over ``parents``; it requires grad when any does."""
        requires = any(p.requires_grad for p in parents)
        return Tensor(data, requires_grad=requires, _parents=tuple(parents))

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

    def __neg__(self) -> "Tensor":
        out = self._make(-self.data, (self,))
        if out.requires_grad:

            def backward():
                self._accumulate(-out.grad)

            out._backward = backward
        return out

    def __sub__(self, other) -> "Tensor":
        return self + (-self._lift(other))

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

    def __matmul__(self, other) -> "Tensor":
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
    out = Tensor._make(data, tensors)
    if out.requires_grad:
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
