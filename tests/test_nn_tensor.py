"""Autograd tests: op-by-op backward checks plus hypothesis gradcheck.

Gradients are validated against central finite differences — the strongest
correctness guarantee available for a hand-rolled autograd engine.  The
graph has no reduction op, so each check seeds :meth:`Tensor.backward` with
a random weighting ``W`` of the output: the gradient it accumulates is that
of the scalar ``sum(W * op(x))``, which the finite differences evaluate in
numpy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, concat


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


def check_gradient(op, x: np.ndarray, atol: float = 1e-5, seed: int = 0):
    """Compare the autograd gradient of ``sum(W * op(x))``, for a random
    ``W``, against finite differences."""
    t = Tensor(x.copy(), requires_grad=True)
    out = op(t)
    weights = np.random.default_rng(seed).normal(size=out.shape)
    out.backward(weights)
    numeric = finite_difference(
        lambda arr: float((op(Tensor(arr)).data * weights).sum()), x.copy()
    )
    np.testing.assert_allclose(t.grad, numeric, atol=atol)


matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).map(lambda c: (r, c))
)


class TestElementwiseGradients:
    def test_add(self):
        check_gradient(lambda t: t + 3.0, np.random.default_rng(0).normal(size=(3, 4)))

    def test_mul(self):
        check_gradient(lambda t: t * t, np.random.default_rng(1).normal(size=(3, 4)))

    def test_relu(self):
        # keep away from the kink at 0
        x = np.random.default_rng(4).normal(size=(4, 4))
        x[np.abs(x) < 0.1] = 0.5
        check_gradient(lambda t: t.relu(), x)

    def test_sigmoid(self):
        check_gradient(lambda t: t.sigmoid(), np.random.default_rng(5).normal(size=(3, 3)))

    def test_sigmoid_saturates_without_overflow(self):
        with np.errstate(over="raise"):
            out = Tensor(np.array([[-1000.0, 0.0, 1000.0]])).sigmoid().numpy()
        assert out[0, 0] == pytest.approx(0.0, abs=1e-20)
        assert out[0, 1] == 0.5
        assert out[0, 2] == 1.0

    def test_relu_blocks_gradient_below_zero(self):
        x = Tensor(np.array([[-2.0, -0.5, 0.5, 2.0]]), requires_grad=True)
        x.relu().backward(np.full((1, 4), 3.0))
        np.testing.assert_allclose(x.grad, [[0.0, 0.0, 3.0, 3.0]])

    def test_neg_and_sub(self):
        check_gradient(lambda t: (-t) - t, np.random.default_rng(9).normal(size=(2, 2)))


class TestMatmulAndShapes:
    def test_matmul_grad(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        (ta @ tb).backward()
        np.testing.assert_allclose(ta.grad, np.ones((3, 2)) @ b.T)
        np.testing.assert_allclose(tb.grad, a.T @ np.ones((3, 2)))

    def test_matmul_left_operand_gradient(self):
        w = Tensor(np.random.default_rng(11).normal(size=(4, 2)))
        check_gradient(lambda t: t @ w, np.random.default_rng(12).normal(size=(3, 4)))

    def test_matmul_right_operand_gradient(self):
        a = Tensor(np.random.default_rng(13).normal(size=(3, 4)))
        check_gradient(lambda t: a @ t, np.random.default_rng(14).normal(size=(4, 2)))

    def test_concat_grad(self):
        rng = np.random.default_rng(17)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        (concat([a, b], axis=1) * 2.0).backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3), 2.0))
        np.testing.assert_allclose(b.grad, np.full((2, 2), 2.0))

    def test_concat_rows_grad(self):
        check_gradient(
            lambda t: concat([t, t * 2.0], axis=0),
            np.random.default_rng(15).normal(size=(2, 3)),
        )

    def test_concat_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one tensor"):
            concat([])


class TestBroadcasting:
    def test_bias_broadcast_backward(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        b = Tensor(np.zeros((1, 3)), requires_grad=True)
        (x + b).backward()
        np.testing.assert_allclose(b.grad, np.full((1, 3), 4.0))

    def test_scalar_broadcast(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        s = Tensor(2.0, requires_grad=True)
        (x * s).backward()
        assert s.grad == pytest.approx(4.0)

    def test_leading_axis_broadcast_backward(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        b = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        (x * b).backward()
        np.testing.assert_allclose(b.grad, np.full(3, 4.0))
        np.testing.assert_allclose(x.grad, np.tile([1.0, 2.0, 3.0], (4, 1)))


class TestGraphMechanics:
    def test_grad_accumulates_across_uses(self):
        x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        y = x + x  # x used twice
        y.backward()
        np.testing.assert_allclose(x.grad, [[2.0, 2.0]])

    def test_diamond_graph(self):
        x = Tensor(np.array([[3.0]]), requires_grad=True)
        a = x * 2.0
        b = x * 4.0
        (a + b).backward()
        assert x.grad[0, 0] == pytest.approx(6.0)

    def test_backward_without_requires_grad_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_requires_grad_follows_parents(self):
        """A node requires grad when any parent does; a node built from
        constants alone keeps no parents."""
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        c = Tensor(np.ones((2, 2)))
        assert (x * c).requires_grad
        assert (c + x).requires_grad
        assert concat([c, x]).requires_grad
        constant = c * 2.0 + c
        assert not constant.requires_grad
        assert constant._parents == ()

    def test_backward_seed_scales_gradients(self):
        x = Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
        (x * 3.0).backward(np.array([[2.0, 0.5]]))
        np.testing.assert_allclose(x.grad, [[6.0, 1.5]])

    def test_constant_operands_accumulate_nothing(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        c = Tensor(np.full((2, 2), 5.0))
        (x * c + c).backward()
        np.testing.assert_allclose(x.grad, np.full((2, 2), 5.0))
        assert c.grad is None

    def test_zero_grad(self):
        x = Tensor(np.ones((2,)), requires_grad=True)
        (x * 2.0).backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_item_and_numpy(self):
        t = Tensor(5.0)
        assert t.item() == 5.0
        assert Tensor(np.ones((2, 2))).numpy().shape == (2, 2)


class TestPropertyGradcheck:
    @settings(max_examples=25, deadline=None)
    @given(
        shape=matrices,
        seed=st.integers(0, 1000),
    )
    def test_composite_expression_gradient(self, shape, seed):
        """Random composite expressions have finite-difference-correct grads."""
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.2, 1.5, size=shape)
        w = Tensor(rng.normal(size=(2 * shape[1], 3)))

        def op(t):
            gate = (t * 2.0 + 1.0).sigmoid()
            mixed = gate * t.relu() + (Tensor(1.0) - gate) * -t
            return concat([mixed, t], axis=1) @ w

        check_gradient(op, x, atol=1e-4, seed=seed)
