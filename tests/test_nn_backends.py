"""Training-core tests: the fused numpy kernels against the autodiff graph.

The fused kernels (:mod:`repro.nn.backends.numpy_backend`) are the one
training core; the autodiff graph (:class:`repro.core.training.GraphTrainer`,
:meth:`repro.core.model.JointModel.forward`) is their reference.

- the fused trainer trains **bit-identically** to the graph trainer at
  float64 — parameters and loss history — and the fused prediction path
  matches the graph forward bit for bit;
- the fused highway kernels are gradient-checked against central finite
  differences, next to the graph's ``Highway`` layer, and the fused flat
  ADAM step is held to the textbook update, next to
  :class:`repro.nn.optim.Adam`;
- the kernel name the benchmark harness reads, and the rejection of the
  retired ``backend`` detector key and ``[compute]`` spec table.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.model import JointModel
from repro.core.training import GraphTrainer, TrainerConfig, train_model
from repro.features.pipeline import CellFeatures
from repro.nn import Highway, Tensor
from repro.nn.backend import DEFAULT_BACKEND, default_backend_name
from repro.nn.backends.numpy_backend import KERNELS, _adam_step, _hw_bwd, _hw_fwd
from repro.nn.optim import Adam
from repro.spec import SPEC_SCHEMA, DetectorSpec, SpecError

#: The fused kernels ("numpy") and the autodiff graph they reproduce.
IMPLEMENTATIONS = ["reference", "numpy"]


@pytest.fixture(params=IMPLEMENTATIONS)
def implementation(request):
    return request.param


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


def _fused_highway(x, Wt, bt, Wg, bg, dy, need_dx=True):
    """``(y, grads)`` of the fused highway forward/backward kernels."""
    n, d = x.shape
    tg, z2, h, s, y, tmp, dt, dh, ds, dz1, dx = (np.empty((n, d)) for _ in range(11))
    _hw_fwd(x, Wt, bt, Wg, bg, tg, z2, h, s, y, tmp)
    grads = {
        "dWt": np.empty_like(Wt), "dbt": np.empty_like(bt),
        "dWg": np.empty_like(Wg), "dbg": np.empty_like(bg),
    }
    _hw_bwd(dy, x, tg, z2, h, s, Wt, Wg,
            grads["dWt"], grads["dbt"], grads["dWg"], grads["dbg"],
            dt, dh, ds, dz1, np.empty((n, d), dtype=bool), tmp,
            dx if need_dx else None, need_dx)
    if need_dx:
        grads["dx"] = dx
    return y, grads


def _graph_highway(x, Wt, bt, Wg, bg, dy):
    """``(y, grads)`` of the autodiff graph's ``Highway`` layer."""
    layer = Highway(x.shape[1], rng=0)
    layer.transform.weight.data, layer.transform.bias.data = Wt.copy(), bt.copy()
    layer.gate.weight.data, layer.gate.bias.data = Wg.copy(), bg.copy()
    tx = Tensor(x, requires_grad=True)
    y = layer(tx)
    y.backward(dy)
    return y.data, {
        "dx": tx.grad,
        "dWt": layer.transform.weight.grad, "dbt": layer.transform.bias.grad,
        "dWg": layer.gate.weight.grad, "dbg": layer.gate.bias.grad,
    }


def _textbook_adam(p, g, m, v, t, lr, weight_decay, b1=0.9, b2=0.999, eps=1e-8):
    """Kingma & Ba's bias-corrected update, with L2 weight decay."""
    g = g + weight_decay * p if weight_decay else g
    m = m * b1 + (1.0 - b1) * g
    v = v * b2 + (1.0 - b2) * g**2
    m_hat, v_hat = m / (1.0 - b1**t), v / (1.0 - b2**t)
    return p - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


# --------------------------------------------------------------------- #
# Kernel checks (fused kernels and graph, side by side)
# --------------------------------------------------------------------- #


class TestKernelGradients:
    def test_highway_grad(self, implementation):
        rng = np.random.default_rng(3)
        d = 4
        x = rng.normal(size=(6, d))
        Wt, Wg = rng.normal(size=(d, d)), rng.normal(size=(d, d))
        bt, bg = rng.normal(size=(1, d)), rng.normal(size=(1, d))
        R = rng.normal(size=(6, d))
        run = _fused_highway if implementation == "numpy" else _graph_highway

        def loss(xx=x, wt=Wt, btb=bt, wg=Wg, bgb=bg):
            y, _ = run(xx, wt, btb, wg, bgb, R)
            return (y * R).sum()

        _, grads = run(x, Wt, bt, Wg, bg, R)
        for name, arg, value in (
            ("dx", "xx", x), ("dWt", "wt", Wt), ("dbt", "btb", bt),
            ("dWg", "wg", Wg), ("dbg", "bgb", bg),
        ):
            np.testing.assert_allclose(
                grads[name],
                finite_difference(lambda a, arg=arg: loss(**{arg: a}), value.copy()),
                atol=1e-6,
                err_msg=name,
            )
        if implementation == "numpy":
            # The first highway layer of a branch skips dx; the weight
            # gradients must not depend on it.
            _, slim = _fused_highway(x, Wt, bt, Wg, bg, R, need_dx=False)
            assert "dx" not in slim
            for name in ("dWt", "dbt", "dWg", "dbg"):
                assert np.array_equal(slim[name], grads[name])

    @pytest.mark.parametrize("t", [1, 7])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_adam_step_matches_reference(self, implementation, t, weight_decay):
        rng = np.random.default_rng(5)
        p = rng.normal(size=(4, 3))
        g = rng.normal(size=(4, 3))
        m = rng.normal(size=(4, 3)) * 0.1
        v = np.abs(rng.normal(size=(4, 3))) * 0.1
        expect_p, expect_m, expect_v = _textbook_adam(p, g, m, v, t, 1e-2, weight_decay)
        if implementation == "numpy":
            got_p, got_m, got_v = p.ravel(), m.ravel(), v.ravel()
            _adam_step(got_p, g.ravel(), got_m, got_v,
                       np.empty(p.size), np.empty(p.size), t, 1e-2, weight_decay)
        else:
            param = Tensor(p.copy(), requires_grad=True)
            param.grad = g
            optimizer = Adam([param], lr=1e-2, weight_decay=weight_decay)
            optimizer._t = t - 1
            optimizer._m[0][...], optimizer._v[0][...] = m, v
            optimizer.step()
            got_p, got_m, got_v = param.data, optimizer._m[0], optimizer._v[0]
        np.testing.assert_array_equal(got_p.reshape(p.shape), expect_p)
        np.testing.assert_array_equal(got_m.reshape(p.shape), expect_m)
        np.testing.assert_array_equal(got_v.reshape(p.shape), expect_v)


# --------------------------------------------------------------------- #
# Training / prediction equivalence
# --------------------------------------------------------------------- #


def _problem(n=60, numeric=5, branch=6, seed=1):
    rng = np.random.default_rng(0)
    branches = {"char": branch, "word": branch}
    features = CellFeatures(
        numeric=rng.normal(size=(n, numeric)),
        branches={k: rng.normal(size=(n, d)) for k, d in branches.items()},
    )
    labels = rng.integers(0, 2, size=n)
    model = JointModel(
        numeric, branches, hidden_dim=8, dropout=0.2,
        rng=np.random.default_rng(seed),
    )
    return model, features, labels


_SMALL = dict(epochs=4, batch_size=8, min_steps=20, seed=9)


class TestTrainingEquivalence:
    def test_numpy_bit_identical_to_reference(self):
        graph_model, features, labels = _problem()
        graph_history = train_model(
            graph_model, features, labels, TrainerConfig(**_SMALL),
            trainer_factory=GraphTrainer,
        )
        fused_model, _, _ = _problem()
        fused_history = train_model(
            fused_model, features, labels, TrainerConfig(**_SMALL)
        )
        assert graph_history == fused_history
        for a, b in zip(graph_model.state_arrays(), fused_model.state_arrays()):
            assert np.array_equal(a, b)

    def test_predict_logits_bit_identical(self):
        model, features, labels = _problem()
        train_model(model, features, labels, TrainerConfig(**_SMALL))
        graph = model.forward(features).numpy()
        fused = KERNELS.predict_logits(model, features)
        assert np.array_equal(graph, fused)


# --------------------------------------------------------------------- #
# What remains of backend selection
# --------------------------------------------------------------------- #


class TestBackendSelection:
    def test_default_is_numpy(self):
        """The benchmark harness refuses to run unless these agree."""
        assert DEFAULT_BACKEND == "numpy"
        assert default_backend_name() == DEFAULT_BACKEND


class TestComputeSpecTable:
    """The ``[compute]`` table and its ``backend`` key are retired; both
    fail through the ordinary unknown-key errors."""

    def test_backend_rejected_under_detector_table(self):
        with pytest.raises(SpecError, match="backend"):
            DetectorSpec.from_dict(
                {"schema": SPEC_SCHEMA, "detector": {"backend": "numpy"}}
            )

    def test_validate_rejects_unknown_compute_key(self):
        with pytest.raises(SpecError, match=r"unknown spec keys \['compute'\]"):
            DetectorSpec.from_dict({
                "schema": SPEC_SCHEMA,
                "detector": {"epochs": 3},
                "compute": {"backend": "numpy", "dtype": "float64"},
            })
