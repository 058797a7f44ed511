"""Unit tests for layers and module containers."""

import numpy as np
import pytest

from repro.nn import Dropout, Highway, Linear, Module, ReLU, Sequential, Tensor


class TestLinear:
    def test_shapes(self):
        layer = Linear(4, 3, rng=0)
        out = layer(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 3)

    def test_affine_math(self):
        layer = Linear(2, 2, rng=0)
        layer.weight.data = np.array([[1.0, 0.0], [0.0, 2.0]])
        layer.bias.data = np.array([[1.0, -1.0]])
        out = layer(Tensor(np.array([[3.0, 4.0]])))
        np.testing.assert_allclose(out.numpy(), [[4.0, 7.0]])

    def test_parameters_discovered(self):
        layer = Linear(3, 2, rng=0)
        params = list(layer.parameters())
        assert len(params) == 2

    def test_bias_init(self):
        layer = Linear(3, 2, rng=0, bias_init=-1.0)
        np.testing.assert_array_equal(layer.bias.numpy(), [[-1.0, -1.0]])

    def test_weight_and_bias_gradients(self):
        layer = Linear(3, 2, rng=0)
        x = np.random.default_rng(1).normal(size=(4, 3))
        seed = np.random.default_rng(2).normal(size=(4, 2))
        layer(Tensor(x)).backward(seed)
        np.testing.assert_allclose(layer.weight.grad, x.T @ seed)
        np.testing.assert_allclose(layer.bias.grad, seed.sum(axis=0, keepdims=True))


class TestActivations:
    def test_relu(self):
        out = ReLU()(Tensor(np.array([[-1.0, 2.0]])))
        np.testing.assert_allclose(out.numpy(), [[0.0, 2.0]])


class TestDropout:
    def test_eval_mode_is_identity(self):
        layer = Dropout(0.5, rng=0).eval()
        x = np.ones((10, 10))
        np.testing.assert_allclose(layer(Tensor(x)).numpy(), x)

    def test_training_mode_scales_survivors(self):
        layer = Dropout(0.5, rng=0)
        out = layer(Tensor(np.ones((200, 200)))).numpy()
        # Survivors are scaled by 1/keep = 2; mean stays ~1.
        assert set(np.unique(out)) <= {0.0, 2.0}
        assert out.mean() == pytest.approx(1.0, abs=0.05)

    def test_zero_probability_identity(self):
        layer = Dropout(0.0)
        x = np.random.default_rng(0).normal(size=(4, 4))
        np.testing.assert_allclose(layer(Tensor(x)).numpy(), x)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

    def test_gradient_flows_through_survivors_only(self):
        layer = Dropout(0.5, rng=0)
        x = Tensor(np.ones((20, 20)), requires_grad=True)
        out = layer(x)
        out.backward()
        # x is all ones, so the output is the scaled mask and so is the gradient.
        np.testing.assert_array_equal(x.grad, out.numpy())

    def test_same_seed_same_mask(self):
        x = Tensor(np.ones((8, 8)))
        first = Dropout(0.3, rng=7)(x).numpy()
        second = Dropout(0.3, rng=7)(x).numpy()
        np.testing.assert_array_equal(first, second)


class TestHighway:
    def test_preserves_width(self):
        layer = Highway(8, rng=0)
        out = layer(Tensor(np.random.default_rng(0).normal(size=(3, 8))))
        assert out.shape == (3, 8)

    def test_starts_near_identity(self):
        """Negative gate bias means a fresh layer mostly passes input through."""
        layer = Highway(16, rng=0)
        x = np.random.default_rng(1).normal(size=(20, 16))
        out = layer(Tensor(x)).numpy()
        # Output correlates strongly with input at init.
        corr = np.corrcoef(out.ravel(), x.ravel())[0, 1]
        assert corr > 0.7

    def test_gate_bias_starts_negative(self):
        layer = Highway(5, rng=0)
        np.testing.assert_array_equal(layer.gate.bias.numpy(), np.full((1, 5), -1.0))
        np.testing.assert_array_equal(layer.transform.bias.numpy(), np.zeros((1, 5)))

    def test_output_formula(self):
        """``y = t * relu(x W_h + b_h) + (1 - t) * x`` with ``t`` the gate."""
        layer = Highway(4, rng=0)
        x = np.random.default_rng(1).normal(size=(3, 4))
        gate = 1.0 / (1.0 + np.exp(-(x @ layer.gate.weight.data + layer.gate.bias.data)))
        h = np.maximum(x @ layer.transform.weight.data + layer.transform.bias.data, 0.0)
        np.testing.assert_allclose(layer(Tensor(x)).numpy(), gate * h + (1.0 - gate) * x)

    def test_trainable(self):
        layer = Highway(4, rng=0)
        out = layer(Tensor(np.ones((2, 4)), requires_grad=False))
        (out * out).backward()
        grads = [p.grad for p in layer.parameters()]
        assert all(g is not None for g in grads)


class TestSequentialAndModule:
    def test_composition(self):
        model = Sequential(Linear(4, 8, rng=0), ReLU(), Linear(8, 2, rng=1))
        out = model(Tensor(np.ones((3, 4))))
        assert out.shape == (3, 2)

    def test_parameter_recursion(self):
        model = Sequential(Linear(2, 2, rng=0), Sequential(Linear(2, 2, rng=1)))
        assert len(list(model.parameters())) == 4

    def test_train_eval_propagates(self):
        model = Sequential(Dropout(0.5), Sequential(Dropout(0.5)))
        model.eval()
        assert all(not m.training for m in model.children())
        model.train()
        assert all(m.training for m in model.children())

    def test_state_arrays_round_trip(self):
        source = Sequential(Linear(3, 4, rng=0), ReLU(), Linear(4, 2, rng=1))
        target = Sequential(Linear(3, 4, rng=2), ReLU(), Linear(4, 2, rng=3))
        target.load_state_arrays(source.state_arrays())
        x = Tensor(np.random.default_rng(4).normal(size=(5, 3)))
        np.testing.assert_array_equal(target(x).numpy(), source(x).numpy())

    def test_load_state_arrays_checks_count_and_shapes(self):
        model = Linear(3, 2, rng=0)
        with pytest.raises(ValueError, match="expected 2"):
            model.load_state_arrays([np.zeros((3, 2))])
        with pytest.raises(ValueError, match="shape mismatch"):
            model.load_state_arrays([np.zeros((2, 3)), np.zeros((1, 2))])

    def test_forward_abstract(self):
        with pytest.raises(NotImplementedError):
            Module().forward(Tensor([1.0]))
