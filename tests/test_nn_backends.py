"""Training-core tests: the fused numpy kernels against the autodiff graph.

The fused kernels (:mod:`repro.nn.backends.numpy_backend`) are the one
training core; the autodiff graph (:class:`repro.core.training.GraphTrainer`,
:meth:`repro.core.model.JointModel.forward`) is their reference.

- the fused trainer trains **bit-identically** to the graph trainer at
  float64 — parameters and loss history — and the fused prediction path
  matches the graph forward bit for bit, on every branch layout of
  :data:`LAYOUTS` (equal, mixed and three equal widths, one branch, none);
- the fused highway kernels are gradient-checked against central finite
  differences, next to the graph's ``Highway`` layer; on a ``[k, n, d]``
  stack they give each item the bits of its own 2-D call; and the fused
  flat ADAM step is held to the textbook update, next to
  :class:`repro.nn.optim.Adam`;
- the padding-free SGNS kernel updates the embedding tables
  **bit-identically** to the padded kernel it replaced (kept below as
  :func:`padded_sgns_step`), and one whole FastText fit is pinned;
- the kernel name the benchmark harness reads, and the rejection of the
  retired ``backend`` detector key and ``[compute]`` spec table.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.model import JointModel
from repro.core.training import GraphTrainer, TrainerConfig, train_model
from repro.data import load_dataset
from repro.embeddings import FastTextEmbedding, tuple_corpus
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
    """``(y, grads)`` of the fused highway forward/backward kernels, on
    ``[n, d]`` operands or on a ``[k, n, d]`` stack of them."""
    tg, z2, h, s, y, tmp, dt, dh, ds, dz1, dx = (np.empty(x.shape) for _ in range(11))
    _hw_fwd(x, Wt, bt, Wg, bg, tg, z2, h, s, y, tmp)
    grads = {
        "dWt": np.empty_like(Wt), "dbt": np.empty_like(bt),
        "dWg": np.empty_like(Wg), "dbg": np.empty_like(bg),
    }
    _hw_bwd(dy, x, tg, z2, h, s, Wt, Wg,
            grads["dWt"], grads["dbt"], grads["dWg"], grads["dbg"],
            dt, dh, ds, dz1, np.empty(x.shape, dtype=bool), tmp,
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

    @pytest.mark.parametrize("k, n, d", [(2, 32, 16), (3, 5, 1), (2, 1, 7), (3, 33, 12)])
    @pytest.mark.parametrize("need_dx", [True, False])
    def test_stacked_highway_equals_per_item_calls(self, k, n, d, need_dx):
        """One pass over a ``[k, n, d]`` stack gives each item the bits of
        its own 2-D pass: output, input and parameter gradients."""
        rng = np.random.default_rng(100 * k + 10 * n + d)
        x, dy = rng.normal(size=(k, n, d)), rng.normal(size=(k, n, d))
        Wt, Wg = rng.normal(size=(k, d, d)), rng.normal(size=(k, d, d))
        bt, bg = rng.normal(size=(k, 1, d)), rng.normal(size=(k, 1, d))
        y, grads = _fused_highway(x, Wt, bt, Wg, bg, dy, need_dx)
        for j in range(k):
            y_j, grads_j = _fused_highway(x[j], Wt[j], bt[j], Wg[j], bg[j], dy[j], need_dx)
            assert y[j].tobytes() == y_j.tobytes()
            assert grads.keys() == grads_j.keys()
            for name, grad in grads_j.items():
                assert grads[name][j].tobytes() == grad.tobytes(), name

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


#: Branch layouts of the equivalence tests.  The fused trainer runs each
#: width as one stack: ``mixed`` has a stack whose joint columns (0 and 2)
#: are not adjacent.
LAYOUTS = {
    "equal": {"char": 6, "word": 6},
    "mixed": {"char": 6, "tuple": 12, "word": 6},
    "three_equal": {"char": 6, "tuple": 6, "word": 6},
    "one_branch": {"char": 6},
    "numeric_only": {},
}


def _problem(branches, n=60, numeric=5, seed=1):
    rng = np.random.default_rng(0)
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


#: 60 rows in batches of 8: every epoch ends with a tail batch of 4.
_SMALL = dict(epochs=4, batch_size=8, min_steps=20, seed=9)


@pytest.mark.parametrize("layout", LAYOUTS)
class TestTrainingEquivalence:
    def test_numpy_bit_identical_to_reference(self, layout):
        graph_model, features, labels = _problem(LAYOUTS[layout])
        graph_history = train_model(
            graph_model, features, labels, TrainerConfig(**_SMALL),
            trainer_factory=GraphTrainer,
        )
        fused_model, _, _ = _problem(LAYOUTS[layout])
        fused_history = train_model(
            fused_model, features, labels, TrainerConfig(**_SMALL)
        )
        assert graph_history == fused_history
        assert len(graph_model.state_arrays()) == len(fused_model.state_arrays())
        for a, b in zip(graph_model.state_arrays(), fused_model.state_arrays()):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_predict_logits_bit_identical(self, layout):
        model, features, labels = _problem(LAYOUTS[layout])
        train_model(model, features, labels, TrainerConfig(**_SMALL))
        graph = model.forward(features).numpy()
        fused = KERNELS.predict_logits(model, features)
        assert np.array_equal(graph, fused)


# --------------------------------------------------------------------- #
# The SGNS kernel
# --------------------------------------------------------------------- #


def padded_sgns_step(in_table, out_table, sub_ids, sub_mask, contexts,
                     negatives, lr):
    """The padded SGNS batch update ``NumpyBackend.sgns_step`` replaced:
    every center gathers and scatters all ``L`` subword slots, the padding
    masked to zero by the float ``sub_mask``.  Kept as the kernel's
    reference."""
    counts = sub_mask.sum(axis=1, keepdims=True)
    in_vecs = (in_table[sub_ids] * sub_mask[:, :, None]).sum(axis=1) / counts
    n = contexts.shape[0]
    dim = in_table.shape[1]
    targets = np.concatenate([contexts[:, None], negatives], axis=1)
    labels = np.zeros((n, 1 + negatives.shape[1]))
    labels[:, 0] = 1.0
    out_vecs = out_table[targets]
    scores = np.einsum("nd,nkd->nk", in_vecs, out_vecs)
    g = (1.0 / (1.0 + np.exp(-np.clip(scores, -30, 30))) - labels) * lr
    grad_out = g[:, :, None] * in_vecs[:, None, :]
    np.add.at(out_table, targets.ravel(), -grad_out.reshape(-1, dim))
    grad_in = np.einsum("nk,nkd->nd", g, out_vecs) / counts
    weighted = grad_in[:, None, :] * sub_mask[:, :, None]
    np.add.at(in_table, sub_ids.ravel(), -weighted.reshape(-1, dim))


def _subword_vocabulary(buckets: int) -> FastTextEmbedding:
    """An embedding whose subword table holds two words of every length
    from 0 to 29 characters.  Words under 2 characters are shorter than
    ``n_min = 4`` with their boundary markers: their only id is the word's
    own."""
    rng = np.random.default_rng(0)
    words = [
        "".join(rng.choice(list("abcdefgh"), size=length))
        for length in list(range(30)) * 2
    ]
    model = FastTextEmbedding(dim=2, n_min=4, n_max=6, buckets=buckets)
    model._build_vocab([words])
    model._build_subword_table()
    return model


def _bits(table: np.ndarray) -> np.ndarray:
    return table.view(np.uint64)


class TestSgnsKernel:
    @pytest.mark.parametrize("dim", [1, 2, 16])
    @pytest.mark.parametrize("buckets", [3, 64])
    def test_bit_identical_to_padded_reference(self, dim, buckets):
        vocab = _subword_vocabulary(buckets)
        sub_ids, counts = vocab._sub_ids, vocab._sub_counts
        size = counts.size
        sub_mask = (np.arange(sub_ids.shape[1]) < counts[:, None]).astype(float)
        # What the padding-free kernel must get right: every batch mixes
        # all subword counts, including words shorter than n_min, and ids
        # repeat within one word (3 buckets force it for most words).
        assert counts.min() == 1 and np.unique(counts).size >= 28
        repeats = [len(set(ids[:n].tolist())) < n for ids, n in zip(sub_ids, counts)]
        assert sum(repeats) >= (size // 2 if buckets == 3 else 1)

        rng = np.random.default_rng(dim * 100 + buckets)
        scale = 1.0 / dim
        in_table = rng.uniform(-scale, scale, size=(buckets + size, dim))
        out_table = rng.uniform(-scale, scale, size=(size, dim))
        ref_in, ref_out = in_table.copy(), out_table.copy()
        initial = in_table.copy()
        for _ in range(5):
            # Every row once, then repeats: ids recur within the batch.
            centers = np.concatenate(
                [rng.permutation(size), rng.integers(0, size, 40)]
            )
            contexts = rng.integers(0, size, centers.size)
            negatives = rng.integers(0, size, (centers.size, 4))
            padded_sgns_step(ref_in, ref_out, sub_ids[centers],
                             sub_mask[centers], contexts, negatives, 0.5)
            KERNELS.sgns_step(in_table, out_table, sub_ids[centers],
                              counts[centers], contexts, negatives, 0.5)
        assert np.array_equal(_bits(in_table), _bits(ref_in))
        assert np.array_equal(_bits(out_table), _bits(ref_out))
        assert not np.array_equal(in_table, initial)

    def test_window8_fit_tables_pinned(self):
        """One whole relation-wide (``window=8``) fit; the digest was taken
        with the padded kernel."""
        corpus = tuple_corpus(load_dataset("hospital", num_rows=60, seed=1).dirty)
        model = FastTextEmbedding(dim=16, epochs=2, window=8, rng=3).fit(corpus)
        digest = hashlib.sha256(
            model._in.tobytes() + model._out.tobytes()
        ).hexdigest()
        assert digest == (
            "012046b8d496cffec57286a427ad65b8c8016df55d72e61f0e46e4de240c5b02"
        )

    @pytest.mark.parametrize("which", ["in", "out"])
    def test_non_contiguous_table_rejected(self, which):
        """The kernel updates flat views; a table a flat view cannot alias
        is refused, never updated through a silent copy."""
        vocab = _subword_vocabulary(64)
        size = vocab._sub_counts.size
        tables = {
            "in": np.zeros((64 + size, 4)),
            "out": np.zeros((size, 4)),
        }
        tables[which] = np.asfortranarray(tables[which] + 1.0)
        before = tables[which].copy()
        centers = np.arange(size)
        with pytest.raises(ValueError, match="C-contiguous"):
            KERNELS.sgns_step(
                tables["in"], tables["out"], vocab._sub_ids[centers],
                vocab._sub_counts[centers], centers, centers[:, None], 0.5,
            )
        assert np.array_equal(tables[which], before)


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
