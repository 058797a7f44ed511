"""Layers and module containers.

Implements the building blocks of Fig. 2 that
:class:`~repro.core.model.JointModel` and the LR baseline are made of:
``Linear`` (affine transform), ``Highway`` [58] gates for the learnable
representation layers (Fig. 2B), ``ReLU`` and ``Dropout`` for the
classifier (Fig. 2C), and ``Sequential`` composition.  ``Module`` provides
recursive parameter collection, train/eval mode switching and the
parameter arrays a saved detector holds, mirroring the familiar framework
API so the model code above reads naturally.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.nn.tensor import Tensor
from repro.utils.rng import as_generator


class Module:
    """Base class: recursive parameter discovery and train/eval mode."""

    def __init__(self) -> None:
        self.training = True

    def parameters(self) -> Iterator[Tensor]:
        """Yield every trainable tensor of this module and its children."""
        seen: set[int] = set()
        for value in self.__dict__.values():
            if isinstance(value, Tensor) and value.requires_grad:
                if id(value) not in seen:
                    seen.add(id(value))
                    yield value
            elif isinstance(value, Module):
                yield from value.parameters()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.parameters()
                    elif isinstance(item, Tensor) and item.requires_grad:
                        if id(item) not in seen:
                            seen.add(id(item))
                            yield item

    def children(self) -> Iterator["Module"]:
        for value in self.__dict__.values():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield item

    def train(self) -> "Module":
        self.training = True
        for child in self.children():
            child.train()
        return self

    def eval(self) -> "Module":
        self.training = False
        for child in self.children():
            child.eval()
        return self

    def state_arrays(self) -> list[np.ndarray]:
        """Parameter arrays in deterministic traversal order (for saving)."""
        return [p.data.copy() for p in self.parameters()]

    def load_state_arrays(self, arrays: list[np.ndarray]) -> None:
        """Restore parameters saved by :meth:`state_arrays`.

        Arrays must come from an identically-constructed module; shapes are
        checked to catch architecture mismatches early.
        """
        params = list(self.parameters())
        if len(params) != len(arrays):
            raise ValueError(
                f"expected {len(params)} parameter arrays, got {len(arrays)}"
            )
        for p, arr in zip(params, arrays):
            arr = np.asarray(arr, dtype=np.float64)
            if p.data.shape != arr.shape:
                raise ValueError(f"shape mismatch: {p.data.shape} vs {arr.shape}")
            p.data = arr.copy()

    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform initialisation."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Linear(Module):
    """Affine transform ``y = xW + b``."""

    def __init__(self, in_features: int, out_features: int, rng=None, bias_init: float = 0.0):
        super().__init__()
        gen = as_generator(rng)
        self.weight = Tensor(_glorot(gen, in_features, out_features), requires_grad=True)
        self.bias = Tensor(
            np.full((1, out_features), bias_init, dtype=np.float64), requires_grad=True
        )

    def forward(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Dropout(Module):
    """Inverted dropout: active only in training mode.

    The classifier M applies dropout to the joint representation (Fig. 2C).
    """

    def __init__(self, p: float = 0.5, rng=None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = as_generator(rng)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self._rng.random(x.shape) < keep).astype(np.float64) / keep
        return x * Tensor(mask)


class Highway(Module):
    """One highway layer [58]: ``y = t * H(x) + (1 - t) * x``.

    ``H`` is an affine+ReLU transform and ``t = sigmoid(x W_t + b_t)`` the
    transform gate.  The gate bias is initialised negative (-1) so layers
    start close to the identity, the standard trick that makes highway
    stacks trainable from scratch.  Input and output widths are equal by
    construction.
    """

    def __init__(self, features: int, rng=None):
        super().__init__()
        gen = as_generator(rng)
        self.transform = Linear(features, features, rng=gen)
        self.gate = Linear(features, features, rng=gen, bias_init=-1.0)

    def forward(self, x: Tensor) -> Tensor:
        t = self.gate(x).sigmoid()
        h = self.transform(x).relu()
        return t * h + (Tensor(1.0) - t) * x


class Sequential(Module):
    """Compose modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.modules = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for module in self.modules:
            x = module(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self.modules)
