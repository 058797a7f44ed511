"""Autograd tests: op-by-op backward checks plus hypothesis gradcheck.

Gradients are validated against central finite differences — the strongest
correctness guarantee available for a hand-rolled autograd engine.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Linear, Tensor, concat, no_grad


def finite_difference(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar-valued f at x."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = f(x)
        flat[i] = original - eps
        minus = f(x)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def check_gradient(op, x: np.ndarray, atol: float = 1e-5):
    """Compare autograd gradient of sum(op(x)) against finite differences."""
    t = Tensor(x.copy(), requires_grad=True)
    out = op(t).sum()
    out.backward()
    numeric = finite_difference(lambda arr: op(Tensor(arr)).sum().item(), x.copy())
    np.testing.assert_allclose(t.grad, numeric, atol=atol)


matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).map(lambda c: (r, c))
)


class TestElementwiseGradients:
    def test_add(self):
        check_gradient(lambda t: t + 3.0, np.random.default_rng(0).normal(size=(3, 4)))

    def test_mul(self):
        check_gradient(lambda t: t * t, np.random.default_rng(1).normal(size=(3, 4)))

    def test_div(self):
        x = np.random.default_rng(2).uniform(0.5, 2.0, size=(3, 3))
        check_gradient(lambda t: Tensor(1.0) / t, x)

    def test_pow(self):
        x = np.random.default_rng(3).uniform(0.5, 2.0, size=(2, 5))
        check_gradient(lambda t: t**3, x)

    def test_relu(self):
        # keep away from the kink at 0
        x = np.random.default_rng(4).normal(size=(4, 4))
        x[np.abs(x) < 0.1] = 0.5
        check_gradient(lambda t: t.relu(), x)

    def test_sigmoid(self):
        check_gradient(lambda t: t.sigmoid(), np.random.default_rng(5).normal(size=(3, 3)))

    def test_tanh(self):
        check_gradient(lambda t: t.tanh(), np.random.default_rng(6).normal(size=(3, 3)))

    def test_exp(self):
        check_gradient(lambda t: t.exp(), np.random.default_rng(7).normal(size=(2, 3)))

    def test_log(self):
        x = np.random.default_rng(8).uniform(0.5, 3.0, size=(3, 2))
        check_gradient(lambda t: t.log(), x)

    def test_neg_and_sub(self):
        check_gradient(lambda t: (-t) - t, np.random.default_rng(9).normal(size=(2, 2)))


class TestMatmulAndShapes:
    def test_matmul_grad(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        (ta @ tb).sum().backward()
        np.testing.assert_allclose(ta.grad, np.ones((3, 2)) @ b.T)
        np.testing.assert_allclose(tb.grad, a.T @ np.ones((3, 2)))

    def test_reshape_grad(self):
        check_gradient(
            lambda t: t.reshape(6, 2) * 2.0, np.random.default_rng(11).normal(size=(3, 4))
        )

    def test_transpose_grad(self):
        check_gradient(lambda t: t.T * 3.0, np.random.default_rng(12).normal(size=(2, 5)))

    def test_sum_axis(self):
        check_gradient(lambda t: t.sum(axis=0), np.random.default_rng(13).normal(size=(3, 4)))

    def test_sum_keepdims(self):
        check_gradient(
            lambda t: t.sum(axis=1, keepdims=True) * t,
            np.random.default_rng(14).normal(size=(3, 4)),
        )

    def test_mean(self):
        check_gradient(lambda t: t.mean(), np.random.default_rng(15).normal(size=(4, 2)))

    def test_take_rows(self):
        x = np.random.default_rng(16).normal(size=(5, 3))
        idx = np.array([0, 2, 2, 4])
        t = Tensor(x.copy(), requires_grad=True)
        t.take_rows(idx).sum().backward()
        expected = np.zeros_like(x)
        np.add.at(expected, idx, np.ones((4, 3)))
        np.testing.assert_allclose(t.grad, expected)

    def test_concat_grad(self):
        rng = np.random.default_rng(17)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        (concat([a, b], axis=1) * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3), 2.0))
        np.testing.assert_allclose(b.grad, np.full((2, 2), 2.0))


class TestBroadcasting:
    def test_bias_broadcast_backward(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        b = Tensor(np.zeros((1, 3)), requires_grad=True)
        (x + b).sum().backward()
        np.testing.assert_allclose(b.grad, np.full((1, 3), 4.0))

    def test_scalar_broadcast(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        s = Tensor(2.0, requires_grad=True)
        (x * s).sum().backward()
        assert s.grad == pytest.approx(4.0)


class TestGraphMechanics:
    def test_grad_accumulates_across_uses(self):
        x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        y = x + x  # x used twice
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [[2.0, 2.0]])

    def test_diamond_graph(self):
        x = Tensor(np.array([[3.0]]), requires_grad=True)
        a = x * 2.0
        b = x * 4.0
        (a + b).sum().backward()
        assert x.grad[0, 0] == pytest.approx(6.0)

    def test_backward_without_requires_grad_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_no_grad_context(self):
        with no_grad():
            x = Tensor([1.0], requires_grad=True)
            y = x * 2.0
        assert not y.requires_grad

    def test_no_grad_is_per_thread(self):
        """A prediction under ``no_grad`` on one thread must not strip the
        parameters of a model built on another thread meanwhile."""
        holding, release = threading.Event(), threading.Event()

        def predict() -> None:
            with no_grad():
                holding.set()
                release.wait(timeout=10)

        thread = threading.Thread(target=predict)
        thread.start()
        try:
            assert holding.wait(timeout=10)
            layer = Linear(3, 2, rng=0)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert layer.weight.requires_grad and layer.bias.requires_grad
        assert len(list(layer.parameters())) == 2

    def test_zero_grad(self):
        x = Tensor(np.ones((2,)), requires_grad=True)
        (x * 2.0).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_item_and_numpy(self):
        t = Tensor(5.0)
        assert t.item() == 5.0
        assert Tensor(np.ones((2, 2))).numpy().shape == (2, 2)

    def test_scalar_exponent_only(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])


class TestPropertyGradcheck:
    @settings(max_examples=25, deadline=None)
    @given(
        shape=matrices,
        seed=st.integers(0, 1000),
    )
    def test_composite_expression_gradient(self, shape, seed):
        """Random composite expressions have finite-difference-correct grads."""
        x = np.random.default_rng(seed).uniform(0.2, 1.5, size=shape)

        def op(t):
            return ((t * 2.0 + 1.0).sigmoid() * t.tanh() + t.relu()).sum(axis=0)

        check_gradient(op, x, atol=1e-4)
