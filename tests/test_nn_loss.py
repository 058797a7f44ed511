"""Unit tests for loss functions, incl. gradient checks."""

import numpy as np
import pytest

from repro.nn import Tensor, binary_cross_entropy_with_logits, softmax_cross_entropy


class TestSoftmaxCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        logits = Tensor(np.array([[10.0, -10.0], [-10.0, 10.0]]))
        loss = softmax_cross_entropy(logits, np.array([0, 1]))
        assert loss.item() < 1e-6

    def test_uniform_prediction_log2(self):
        logits = Tensor(np.zeros((4, 2)))
        loss = softmax_cross_entropy(logits, np.array([0, 1, 0, 1]))
        assert loss.item() == pytest.approx(np.log(2))

    def test_gradient_matches_softmax_minus_onehot(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        targets = np.array([1, 3, 0])
        softmax_cross_entropy(logits, targets).backward()
        exp = np.exp(logits.data)
        expected = exp / exp.sum(axis=1, keepdims=True)
        expected[np.arange(3), targets] -= 1.0
        expected /= 3
        np.testing.assert_allclose(logits.grad, expected, atol=1e-10)

    def test_numerical_stability_large_logits(self):
        logits = Tensor(np.array([[1000.0, -1000.0]]))
        loss = softmax_cross_entropy(logits, np.array([0]))
        assert np.isfinite(loss.item())

    def test_gradient_finite_for_large_logits(self):
        logits = Tensor(np.array([[1000.0, -1000.0], [-1000.0, 1000.0]]), requires_grad=True)
        softmax_cross_entropy(logits, np.array([1, 1])).backward()
        np.testing.assert_allclose(logits.grad, [[0.5, -0.5], [0.0, 0.0]])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(Tensor(np.zeros(3)), np.array([0]))
        with pytest.raises(ValueError):
            softmax_cross_entropy(Tensor(np.zeros((2, 2))), np.array([0]))


class TestBinaryCrossEntropy:
    def test_perfect_prediction(self):
        logits = Tensor(np.array([[20.0], [-20.0]]))
        loss = binary_cross_entropy_with_logits(logits, np.array([[1.0], [0.0]]))
        assert loss.item() < 1e-6

    def test_soft_targets_supported(self):
        logits = Tensor(np.zeros((2, 1)), requires_grad=True)
        loss = binary_cross_entropy_with_logits(logits, np.array([[0.7], [0.3]]))
        loss.backward()
        # gradient = (sigmoid(0) - target) / n = (0.5 - t) / 2
        np.testing.assert_allclose(logits.grad, [[-0.1], [0.1]], atol=1e-10)

    def test_flat_targets_take_the_logits_shape(self):
        logits = Tensor(np.zeros((3, 1)), requires_grad=True)
        binary_cross_entropy_with_logits(logits, [1.0, 0.0, 1.0]).backward()
        np.testing.assert_allclose(logits.grad, [[-0.5 / 3], [0.5 / 3], [-0.5 / 3]])

    def test_numerical_stability(self):
        logits = Tensor(np.array([[800.0], [-800.0]]))
        loss = binary_cross_entropy_with_logits(logits, np.array([[0.0], [1.0]]))
        assert np.isfinite(loss.item())
        assert loss.item() > 100  # confidently wrong is very costly

    def test_finite_difference_gradient(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(5, 1))
        targets = rng.uniform(size=(5, 1))
        t = Tensor(z.copy(), requires_grad=True)
        binary_cross_entropy_with_logits(t, targets).backward()
        eps = 1e-6
        for i in range(5):
            z_plus, z_minus = z.copy(), z.copy()
            z_plus[i] += eps
            z_minus[i] -= eps
            num = (
                binary_cross_entropy_with_logits(Tensor(z_plus), targets).item()
                - binary_cross_entropy_with_logits(Tensor(z_minus), targets).item()
            ) / (2 * eps)
            assert t.grad[i, 0] == pytest.approx(num, abs=1e-5)
