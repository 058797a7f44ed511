"""Unit tests for optimisers."""

import numpy as np
import pytest

from repro.nn import Adam, Linear, Tensor, softmax_cross_entropy


def quadratic_loss(param: Tensor) -> Tensor:
    """(p - 3)^2 per element — minimum at 3.  ``backward()`` seeds ones, so
    the gradients are those of the sum."""
    diff = param - 3.0
    return diff * diff


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Tensor(np.full(3, 10.0), requires_grad=True)
        opt = Adam([p], lr=0.3)
        for _ in range(200):
            opt.zero_grad()
            quadratic_loss(p).backward()
            opt.step()
        np.testing.assert_allclose(p.data, np.full(3, 3.0), atol=1e-2)

    def test_first_step_moves_each_weight_by_lr(self):
        """Bias correction makes ADAM's first step ``lr * sign(grad)``, up to eps."""
        p = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
        opt = Adam([p], lr=0.01)
        (p * Tensor([3.0, -0.2, 40.0])).backward()
        opt.step()
        np.testing.assert_allclose(p.data, [0.99, -1.99, 0.49], atol=1e-8)

    def test_skips_parameters_without_grad(self):
        p1 = Tensor([1.0], requires_grad=True)
        p2 = Tensor([1.0], requires_grad=True)
        opt = Adam([p1, p2], lr=0.1)
        (p1 * 2.0).backward()
        opt.step()
        assert p1.data[0] != 1.0
        assert p2.data[0] == 1.0

    def test_weight_decay_shrinks_weights(self):
        p = Tensor(np.full(4, 5.0), requires_grad=True)
        opt = Adam([p], lr=0.1, weight_decay=1.0)
        for _ in range(50):
            opt.zero_grad()
            # zero data gradient: only decay acts
            (p * 0.0).backward()
            opt.step()
        assert np.all(np.abs(p.data) < 5.0)

    def test_zero_grad_clears_every_parameter(self):
        model = Linear(2, 1, rng=0)
        opt = Adam(model.parameters())
        model(Tensor(np.ones((1, 2)))).backward()
        assert all(p.grad is not None for p in model.parameters())
        opt.zero_grad()
        assert all(p.grad is None for p in model.parameters())

    def test_rejects_non_positive_lr(self):
        with pytest.raises(ValueError):
            Adam([Tensor([1.0], requires_grad=True)], lr=0.0)

    def test_rejects_bad_betas(self):
        with pytest.raises(ValueError):
            Adam([Tensor([1.0], requires_grad=True)], betas=(1.0, 0.9))

    def test_empty_parameters_rejected(self):
        with pytest.raises(ValueError):
            Adam([])

    def test_trains_linear_classifier(self):
        """End-to-end: a linear model separates a linearly separable set."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(100, 3))
        y = (x[:, 0] > 0).astype(int)
        model = Linear(3, 2, rng=1)
        opt = Adam(model.parameters(), lr=0.05)
        for _ in range(150):
            opt.zero_grad()
            loss = softmax_cross_entropy(model(Tensor(x)), y)
            loss.backward()
            opt.step()
        predictions = model(Tensor(x)).numpy().argmax(axis=1)
        assert (predictions == y).mean() > 0.95
