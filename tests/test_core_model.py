"""Unit tests for the joint model, trainer, and Platt scaling."""

import numpy as np
import pytest

from repro.core import JointModel, PlattScaler, TrainerConfig, train_model
from repro.core.training import GraphTrainer
from repro.features.pipeline import CellFeatures
from repro.nn import Linear, Module, Tensor


def synthetic_features(n: int, seed: int = 0) -> tuple[CellFeatures, np.ndarray]:
    """Separable synthetic problem: label depends on numeric[0] + branch sums."""
    rng = np.random.default_rng(seed)
    numeric = rng.normal(size=(n, 4))
    char = rng.normal(size=(n, 6))
    word = rng.normal(size=(n, 6))
    labels = ((numeric[:, 0] + char.sum(axis=1) * 0.3) > 0).astype(int)
    return CellFeatures(numeric=numeric, branches={"char": char, "word": word}), labels


class TestJointModel:
    def test_forward_shape(self):
        feats, _ = synthetic_features(8)
        model = JointModel(numeric_dim=4, branch_dims={"char": 6, "word": 6}, rng=0)
        assert model(feats).shape == (8, 2)

    def test_missing_branch_raises(self):
        feats = CellFeatures(numeric=np.zeros((2, 4)), branches={"char": np.zeros((2, 6))})
        model = JointModel(numeric_dim=4, branch_dims={"char": 6, "word": 6}, rng=0)
        with pytest.raises(KeyError):
            model(feats)
        with pytest.raises(KeyError, match="'word'"):
            model.error_scores(feats)

    def test_numeric_width_mismatch_raises(self):
        feats = CellFeatures(numeric=np.zeros((2, 3)), branches={})
        model = JointModel(numeric_dim=4, branch_dims={}, rng=0)
        with pytest.raises(ValueError):
            model(feats)
        with pytest.raises(ValueError, match="width 3 != model numeric_dim 4"):
            model.error_scores(feats)

    def test_no_features_rejected(self):
        with pytest.raises(ValueError):
            JointModel(numeric_dim=0, branch_dims={}, rng=0)

    def test_numeric_only_model(self):
        feats = CellFeatures(numeric=np.ones((3, 4)), branches={})
        model = JointModel(numeric_dim=4, branch_dims={}, rng=0)
        assert model(feats).shape == (3, 2)

    def test_error_scores_sign_convention(self):
        feats, _ = synthetic_features(5)
        model = JointModel(numeric_dim=4, branch_dims={"char": 6, "word": 6}, rng=0)
        scores = model.error_scores(feats)
        model.eval()  # match error_scores' internal eval mode (no dropout)
        logits = model(feats).numpy()
        np.testing.assert_allclose(scores, logits[:, 1] - logits[:, 0])

    def test_error_scores_restores_training_mode(self):
        feats, _ = synthetic_features(5)
        model = JointModel(numeric_dim=4, branch_dims={"char": 6, "word": 6}, rng=0)
        model.train()
        model.error_scores(feats)
        assert model.training
        model.eval()
        model.error_scores(feats)
        assert not model.training

    def test_error_scores_switches_no_mode(self, monkeypatch):
        """Scoring runs the fused forward alone: it does not flip the
        model's train/eval mode."""
        switches = []
        feats, _ = synthetic_features(5)
        model = JointModel(numeric_dim=4, branch_dims={"char": 6, "word": 6}, rng=0)
        monkeypatch.setattr(model, "train", lambda: switches.append("train"))
        monkeypatch.setattr(model, "eval", lambda: switches.append("eval"))
        model.error_scores(feats)
        assert switches == []


class TestTraining:
    def test_loss_decreases(self):
        feats, labels = synthetic_features(120)
        model = JointModel(numeric_dim=4, branch_dims={"char": 6, "word": 6}, dropout=0.0, rng=0)
        history = train_model(model, feats, labels, TrainerConfig(epochs=25, seed=0))
        assert history[-1] < history[0]

    def test_learns_separable_problem(self):
        feats, labels = synthetic_features(200)
        model = JointModel(numeric_dim=4, branch_dims={"char": 6, "word": 6}, dropout=0.0, rng=0)
        train_model(model, feats, labels, TrainerConfig(epochs=40, lr=3e-3, seed=0))
        scores = model.error_scores(feats)
        accuracy = ((scores > 0).astype(int) == labels).mean()
        assert accuracy > 0.9

    def test_model_left_in_eval_mode(self):
        feats, labels = synthetic_features(30)
        model = JointModel(numeric_dim=4, branch_dims={"char": 6, "word": 6}, rng=0)
        train_model(model, feats, labels, TrainerConfig(epochs=2, seed=0))
        assert not model.training

    def test_label_length_mismatch(self):
        feats, labels = synthetic_features(10)
        model = JointModel(numeric_dim=4, branch_dims={"char": 6, "word": 6}, rng=0)
        with pytest.raises(ValueError):
            train_model(model, feats, labels[:5])

    def test_empty_batch_rejected(self):
        feats = CellFeatures(numeric=np.zeros((0, 4)), branches={})
        model = JointModel(numeric_dim=4, branch_dims={}, rng=0)
        with pytest.raises(ValueError):
            train_model(model, feats, np.zeros(0, dtype=int))

    def test_other_modules_train_on_the_graph_only(self):
        """The fused kernels train a JointModel; any other module needs the
        autodiff graph, asked for by name."""

        class NumericOnly(Module):
            def __init__(self):
                super().__init__()
                self.linear = Linear(4, 2, rng=0)

            def forward(self, features):
                return self.linear(Tensor(features.numeric))

        feats, labels = synthetic_features(12)
        model = NumericOnly()
        with pytest.raises(TypeError, match="trainer_factory=GraphTrainer"):
            train_model(model, feats, labels, TrainerConfig(epochs=2, seed=0))
        history = train_model(
            model, feats, labels, TrainerConfig(epochs=2, seed=0),
            trainer_factory=GraphTrainer,
        )
        assert len(history) == 2


class TestPlattScaler:
    def test_maps_scores_to_probabilities(self):
        rng = np.random.default_rng(0)
        scores = np.concatenate([rng.normal(-2, 1, 50), rng.normal(2, 1, 50)])
        targets = np.concatenate([np.zeros(50), np.ones(50)])
        scaler = PlattScaler().fit(scores, targets)
        probs = scaler.probability(scores)
        assert probs[targets == 1].mean() > probs[targets == 0].mean()
        assert np.all((0 <= probs) & (probs <= 1))

    def test_monotone_in_score_for_positive_a(self):
        scaler = PlattScaler().fit(np.array([-1.0, 1.0]), np.array([0.0, 1.0]))
        probs = scaler.probability(np.linspace(-3, 3, 10))
        assert np.all(np.diff(probs) >= 0)

    def test_empty_holdout_keeps_identity(self):
        scaler = PlattScaler().fit(np.zeros(0), np.zeros(0))
        assert scaler.probability(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            PlattScaler().fit(np.zeros(3), np.zeros(4))

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            PlattScaler().probability(np.zeros(2))

    def test_calibration_improves_tiny_holdout_behaviour(self):
        """Prior-corrected targets keep probabilities off the extremes."""
        scaler = PlattScaler().fit(np.array([5.0]), np.array([1.0]))
        p = scaler.probability(np.array([5.0]))[0]
        assert p < 1.0
