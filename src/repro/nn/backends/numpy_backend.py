"""Fused pure-numpy kernels — the training core.

Replaces the per-op autodiff graph of the training loop with straight-line
minibatch BLAS kernels: one fused affine→nonlinearity→Highway-gate
forward/backward per layer per batch, run once for each stack of
same-width branches, a flat-parameter ADAM step over one concatenated
vector, and a per-batch-size workspace of preallocated activation/gradient
buffers reused across steps (every ufunc and matmul writes through
``out=``).

Bit-identity contract: at float64 these kernels reproduce the autodiff
stack *exactly* — same elementary operations in the same accumulation
order, consuming the same RNG streams (batch permutations from the trainer
seed, dropout masks from the model's own dropout generator).  Every
rewrite below relies on an exact IEEE identity, not an algebraic one:

- ``a - b`` ≡ ``a + (-b)`` (the graph's subtract is add-of-negation);
- ``g * g`` ≡ ``g ** 2`` (numpy's small-integer-exponent pow fast path);
- ``float64 * bool`` ≡ ``float64 * bool.astype(float64)``;
- ``arr.sum(axis=0)`` ≡ ``np.add.reduce(arr, axis=0)``;
- ``Generator.random(out=buf)`` consumes the stream of ``random(shape)``;
- ``np.take(a, idx, out=buf)`` ≡ the fancy-index copy ``a[idx]``;
- the cached forward carry ``s = 1 - t`` equals the backward recompute;
- a ``[k, n, d]`` stack of ``k`` same-width branches gives each branch the
  bits of its own ``[n, d]`` pass: a stacked ``matmul`` runs each item
  through the BLAS routine the 2-D call uses (``swapaxes(-1, -2)`` views
  have the per-item strides of ``.T``), and ``np.add.reduce`` over axis
  ``-2`` sums each item's rows as the 2-D reduction over axis 0 does.
  Every product and reduction of the step (``x@W``, ``dh@Wᵀ``, ``xᵀ@dh``,
  ``r@lW``, ``dz3@lWᵀ``, ``rᵀ@dz3`` and the bias sums) matched per item
  on 1,400 random shapes (``n`` up to 512, ``d`` up to 50, ``k`` 2 or 3)
  on a 2-vCPU x86-64 host with OpenBLAS 0.3.31; ``tests/test_nn_backends.py``
  pins the highway kernels per item and the trainer on five branch layouts.

The gate and transform products of a highway layer stay two GEMMs: one
``x @ [Wg | Wt]`` product differed from the two separate ones in 298 of
600 random shapes on that host, so merging them would break the contract.

The SGNS kernel (:meth:`NumpyBackend.sgns_step`) reproduces the padded
kernel it replaced, which gathered and scattered every slot of the padded
subword table with the padding multiplied by a zero mask, bit for bit:

- the dropped padding terms only ever added ``±0.0`` (a finite value
  times the zero mask): to the running subword sums, and to the rows of
  bucket 0, the padding id.  The kept terms were multiplied by 1.0, which
  is exact.  Adding ``±0.0`` leaves any value that is not ``-0.0``
  unchanged, and no table entry or partial sum is ``-0.0``: the tables
  start as uniform draws and zeros, a sum of two values that are not
  ``-0.0`` is never ``-0.0``, and the norm clip divides by factors above
  1 (only an underflowing negative entry could become ``-0.0``);
- the grouped sums keep the accumulation order: reducing a
  ``[m, c, dim]`` gather over its middle axis adds the ``c`` rows one by
  one in index order, as the padded ``[n, L, dim]`` sum did with its
  first ``c`` rows.  At ``dim == 1`` numpy sums pairwise instead, so that
  case keeps the padded gather;
- the 1-D ``np.add.at`` keeps the accumulation order: it applies its
  indices in order, and with the flat element indices in row-major order
  each element receives the same additions, in the same order, as under
  the row-wise ``np.add.at``;
- ``x / counts`` over integer counts ≡ ``x / counts.astype(float64)``.

The trainer and the eval forward serve :class:`repro.core.model.JointModel`
only: the model hands them its layers through
:meth:`~repro.core.model.JointModel.kernel_layers` and checks a batch
through :meth:`~repro.core.model.JointModel.check_batch`, so this module
inspects no layer types.  Any other module trains on the autodiff graph,
reached through ``train_model(..., trainer_factory=GraphTrainer)``.
"""

from __future__ import annotations

import numpy as np

# Hot-loop aliases: skip the np-module attribute lookup per call, and — for
# clip — the fromnumeric wrapper entirely (maximum∘minimum computes the
# identical result elementwise: each output is exactly x, lo, or hi).
_mm = np.matmul
_add = np.add
_sub = np.subtract
_mul = np.multiply
_div = np.divide
_neg = np.negative
_exp = np.exp
_max = np.maximum
_min = np.minimum
_gt = np.greater
_reduce_add = np.add.reduce


def _hw_fwd(x, Wt, bt, Wg, bg, tg, z2, h, s, y, tmp):
    """Fused highway forward into preallocated buffers.

    Operands are ``[n, d]`` activations with ``[d, d]``/``[1, d]``
    parameters, or a stack of ``k`` of each (``[k, n, d]``, ``[k, d, d]``,
    ``[k, 1, d]``).  Leaves the backward cache in place: ``tg`` (gate),
    ``z2`` (transform pre-activation), ``h`` (relu), ``s`` (= 1 - tg
    carry), with ``y`` the output.
    """
    _mm(x, Wg, out=tg)
    _add(tg, bg, out=tg)
    _max(tg, -60.0, out=tg)
    _min(tg, 60.0, out=tg)
    _neg(tg, out=tg)
    _exp(tg, out=tg)
    _add(tg, 1.0, out=tg)
    _div(1.0, tg, out=tg)
    _mm(x, Wt, out=z2)
    _add(z2, bt, out=z2)
    _max(z2, 0.0, out=h)
    _mul(tg, h, out=y)
    _sub(1.0, tg, out=s)
    _mul(s, x, out=tmp)
    _add(y, tmp, out=y)


def _hw_bwd(dy, x, tg, z2, h, s, Wt, Wg, gWt, gbt, gWg, gbg,
            dt, dh, ds, dz1, boolb, tmp, dx, need_dx):
    """Fused highway backward; mirrors the graph's reversed-topo op order.

    Takes the operands of :func:`_hw_fwd`, 2-D or stacked.  Writes
    parameter gradients into the ``g*`` views and (when ``need_dx``) the
    input gradient into ``dx``.  The ``dx`` accumulation order — transform
    path, then carry path, then gate path — is the graph's accumulation
    order and must not be reordered.
    """
    xT = x.swapaxes(-1, -2)
    _mul(dy, h, out=dt)
    _mul(dy, tg, out=dh)
    _gt(z2, 0.0, out=boolb)
    _mul(dh, boolb, out=dh)  # dz2
    _reduce_add(dh, axis=-2, out=gbt, keepdims=True)
    if need_dx:
        _mm(dh, Wt.swapaxes(-1, -2), out=dx)
    _mm(xT, dh, out=gWt)
    _mul(dy, x, out=ds)
    if need_dx:
        _mul(dy, s, out=tmp)
        _add(dx, tmp, out=dx)
    _sub(dt, ds, out=dt)
    _mul(dt, tg, out=dz1)
    _mul(dz1, s, out=dz1)
    _reduce_add(dz1, axis=-2, out=gbg, keepdims=True)
    if need_dx:
        _mm(dz1, Wg.swapaxes(-1, -2), out=tmp)
        _add(dx, tmp, out=dx)
    _mm(xT, dz1, out=gWg)


def _adam_step(P, G, M, V, T1, T2, t, lr, wd, b1=0.9, b2=0.999, eps=1e-8):
    """Fused ADAM step ``t`` over the flat parameter vector ``P``, in place.

    Op for op the per-parameter update of :class:`repro.nn.optim.Adam`;
    ``G`` is the gradient, ``M``/``V`` the moments, ``T1``/``T2`` work buffers.
    """
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    if wd:
        _mul(P, wd, out=T1)
        _add(G, T1, out=T1)
        grad = T1
    else:
        grad = G
    _mul(M, b1, out=M)
    _mul(grad, 1.0 - b1, out=T2)
    _add(M, T2, out=M)
    _mul(V, b2, out=V)
    _mul(grad, grad, out=T2)
    _mul(T2, 1.0 - b2, out=T2)
    _add(V, T2, out=V)
    _div(M, bias1, out=T1)
    _div(V, bias2, out=T2)
    np.sqrt(T2, out=T2)
    _add(T2, eps, out=T2)
    _mul(T1, lr, out=T1)
    _div(T1, T2, out=T1)
    _sub(P, T1, out=P)


class _BranchSpace:
    """Activation/gradient buffers of one stack of ``k`` branches of width
    ``d`` for one batch size, each ``[k, nb, d]`` (``dz3``: ``[k, nb, 1]``)."""

    __slots__ = (
        "xb", "tg1", "z21", "h1", "s1", "y1", "tg2", "z22", "h2", "s2",
        "y2", "r", "tmp", "boolb", "dt", "dh", "ds", "dz1", "dx", "dr",
        "dz3",
    )

    def __init__(self, k: int, nb: int, d: int):
        for slot in self.__slots__:
            if slot == "boolb":
                setattr(self, slot, np.empty((k, nb, d), dtype=bool))
            elif slot == "dz3":
                setattr(self, slot, np.empty((k, nb, 1)))
            else:
                setattr(self, slot, np.empty((k, nb, d)))


class _Workspace:
    """All buffers of one batch size (only two sizes occur: full and tail)."""

    def __init__(self, nb, stacks, numeric_dim, joint_dim, hidden, classes):
        self.branches = [_BranchSpace(k, nb, d) for k, d in stacks]
        self.joint = np.empty((nb, joint_dim))
        self.numbuf = np.empty((nb, numeric_dim))
        self.mask64 = np.empty((nb, joint_dim))
        self.boolj = np.empty((nb, joint_dim), dtype=bool)
        self.maskc = np.empty((nb, joint_dim))
        self.xd = np.empty((nb, joint_dim))
        self.z4 = np.empty((nb, hidden))
        self.r4 = np.empty((nb, hidden))
        self.boolh = np.empty((nb, hidden), dtype=bool)
        self.dr4 = np.empty((nb, hidden))
        self.dxd = np.empty((nb, joint_dim))
        self.logits = np.empty((nb, classes))
        self.col = np.empty((nb, 1))
        self.col2 = np.empty((nb, 1))
        self.shifted = np.empty((nb, classes))
        self.expb = np.empty((nb, classes))
        self.probs = np.empty((nb, classes))
        self.yb = np.empty(nb, dtype=np.int64)
        self.ar = np.arange(nb)


class _FusedJointTrainer:
    """Flat-parameter fused trainer over a JointModel's layers.

    Driven by :func:`repro.core.training.train_model`, which owns the
    epoch / permutation / minibatch schedule: :meth:`step` runs one
    optimiser step over the rows ``idx`` and returns the batch loss;
    :meth:`finalize` writes the trained parameters back into the model.

    Branches of equal width train as one stack: one ``[k, n, d]`` pass
    per width instead of one ``[n, d]`` pass per branch (the default
    model's 16-wide ``char`` and ``word`` branches share one, writing
    joint columns 0 and 2).  A lone branch is a stack of one.  The flat
    parameter vector is laid out stack by stack, so each parameter of a
    stack is one ``[k, ...]`` view of it; ADAM is elementwise, so the
    layout leaves its bits alone.
    """

    def __init__(self, model, features, labels, config):
        model.check_batch(features)
        branches, drop, lin1, lin2 = model.kernel_layers()

        # Joint columns (branch indices) of each width, widths in order of
        # first appearance.
        groups: dict[int, list[int]] = {}
        for bi, (h1, _, _) in enumerate(branches):
            groups.setdefault(h1.transform.weight.data.shape[0], []).append(bi)
        per_branch = [
            (
                h1.transform.weight, h1.transform.bias,
                h1.gate.weight, h1.gate.bias,
                h2.transform.weight, h2.transform.bias,
                h2.gate.weight, h2.gate.bias,
                lin.weight, lin.bias,
            )
            for h1, h2, lin in branches
        ]
        # One block per flat-vector segment: a parameter of every branch of
        # a stack (fused-kernel order), then classifier M's, one each.
        blocks = [
            [per_branch[bi][slot] for bi in cols]
            for cols in groups.values()
            for slot in range(10)
        ]
        blocks += [[p] for p in (lin1.weight, lin1.bias, lin2.weight, lin2.bias)]
        total = sum(len(block) * block[0].data.size for block in blocks)
        self._P = np.empty(total)
        self._G = np.empty(total)
        self._M = np.zeros(total)
        self._V = np.zeros(total)
        self._T1 = np.empty(total)
        self._T2 = np.empty(total)
        self._params, self._views_p = [], []
        stacks_p, stacks_g = [], []
        lo = 0
        for block in blocks:
            hi = lo + len(block) * block[0].data.size
            shape = (len(block), *block[0].data.shape)
            stack = self._P[lo:hi].reshape(shape)
            stacks_p.append(stack)
            stacks_g.append(self._G[lo:hi].reshape(shape))
            for j, p in enumerate(block):
                stack[j] = p.data
                self._params.append(p)
                self._views_p.append(stack[j])
            lo = hi
        # Per-stack (param-stack, grad-stack) bundles in fused-kernel order.
        o = 10 * len(groups)
        self._sviews = [
            (tuple(stacks_p[i:i + 10]), tuple(stacks_g[i:i + 10]))
            for i in range(0, o, 10)
        ]
        self._cW1, self._cb1, self._cW2, self._cb2 = (s[0] for s in stacks_p[o:])
        self._gcW1, self._gcb1, self._gcW2, self._gcb2 = (
            s[0] for s in stacks_g[o:]
        )

        names = model.branch_names
        self._cols = [np.array(cols) for cols in groups.values()]
        self._stacks = [(len(cols), d) for d, cols in groups.items()]
        # Each stack's features, branch by branch: a step gathers the batch
        # rows into the stack's buffer, so the training set is not copied.
        self._xs = [
            [
                np.ascontiguousarray(
                    np.asarray(features.branches[names[bi]], dtype=np.float64)
                )
                for bi in cols
            ]
            for cols in groups.values()
        ]
        self._numeric = np.ascontiguousarray(
            np.asarray(features.numeric, dtype=np.float64)
        )
        self._labels = np.ascontiguousarray(np.asarray(labels, dtype=np.int64))
        self._nbranch = len(names)
        self._joint_dim = self._nbranch + self._numeric.shape[1]
        self._hidden = lin1.weight.data.shape[1]
        self._classes = lin2.weight.data.shape[1]
        self._drop_p = drop.p
        self._drop_rng = drop._rng
        self._keep = 1.0 - drop.p

        self._lr = config.lr
        self._wd = config.weight_decay
        self._t = 0
        self._spaces: dict[int, _Workspace] = {}

    def _workspace(self, nb: int) -> _Workspace:
        ws = self._spaces.get(nb)
        if ws is None:
            ws = _Workspace(
                nb, self._stacks, self._numeric.shape[1], self._joint_dim,
                self._hidden, self._classes,
            )
            self._spaces[nb] = ws
        return ws

    def step(self, idx: np.ndarray) -> float:
        nb = idx.shape[0]
        ws = self._workspace(nb)
        yb = ws.yb
        ar = ws.ar
        self._labels.take(idx, out=yb)
        joint = ws.joint
        nbranch = self._nbranch

        for b, xs, cols, (pv, _) in zip(ws.branches, self._xs, self._cols,
                                        self._sviews):
            Wt1, bt1, Wg1, bg1, Wt2, bt2, Wg2, bg2, lW, lb = pv
            for j, x in enumerate(xs):
                x.take(idx, axis=0, out=b.xb[j])
            _hw_fwd(b.xb, Wt1, bt1, Wg1, bg1,
                    b.tg1, b.z21, b.h1, b.s1, b.y1, b.tmp)
            _hw_fwd(b.y1, Wt2, bt2, Wg2, bg2,
                    b.tg2, b.z22, b.h2, b.s2, b.y2, b.tmp)
            _max(b.y2, 0.0, out=b.r)
            _mm(b.r, lW, out=b.dz3)
            _add(b.dz3, lb, out=b.dz3)
            joint[:, cols] = b.dz3[:, :, 0].T
        if self._numeric.shape[1]:
            self._numeric.take(idx, axis=0, out=ws.numbuf)
            joint[:, nbranch:] = ws.numbuf

        if self._drop_p > 0.0:
            self._drop_rng.random(out=ws.mask64)
            np.less(ws.mask64, self._keep, out=ws.boolj)
            _div(ws.boolj, self._keep, out=ws.maskc)
            _mul(joint, ws.maskc, out=ws.xd)
            xd = ws.xd
        else:
            xd = joint
        _mm(xd, self._cW1, out=ws.z4)
        _add(ws.z4, self._cb1, out=ws.z4)
        _max(ws.z4, 0.0, out=ws.r4)
        _mm(ws.r4, self._cW2, out=ws.logits)
        _add(ws.logits, self._cb2, out=ws.logits)

        logits = ws.logits
        logits.max(axis=1, out=ws.col, keepdims=True)
        _sub(logits, ws.col, out=ws.shifted)
        _exp(ws.shifted, out=ws.expb)
        _reduce_add(ws.expb, axis=1, out=ws.col2, keepdims=True)
        np.log(ws.col2, out=ws.col2)
        _sub(ws.shifted, ws.col2, out=ws.shifted)  # log-probs
        # ``picked.mean()`` is pairwise-sum / count; _reduce_add over the
        # 1-D gather is the identical reduction.
        loss = -(_reduce_add(ws.shifted[ar, yb]) / nb)

        _exp(ws.shifted, out=ws.probs)
        ws.probs[ar, yb] -= 1.0
        _div(ws.probs, nb, out=ws.probs)
        dl = ws.probs
        _reduce_add(dl, axis=0, out=self._gcb2, keepdims=True)
        _mm(dl, self._cW2.T, out=ws.dr4)
        _mm(ws.r4.T, dl, out=self._gcW2)
        _gt(ws.z4, 0.0, out=ws.boolh)
        _mul(ws.dr4, ws.boolh, out=ws.dr4)  # dz4
        _reduce_add(ws.dr4, axis=0, out=self._gcb1, keepdims=True)
        _mm(ws.dr4, self._cW1.T, out=ws.dxd)
        _mm(xd.T, ws.dr4, out=self._gcW1)
        if self._drop_p > 0.0:
            _mul(ws.dxd, ws.maskc, out=ws.dxd)
        djoint = ws.dxd

        for b, cols, (pv, gv) in zip(ws.branches, self._cols, self._sviews):
            Wt1, bt1, Wg1, bg1, Wt2, bt2, Wg2, bg2, lW, lb = pv
            gWt1, gbt1, gWg1, gbg1, gWt2, gbt2, gWg2, gbg2, glW, glb = gv
            djoint.T.take(cols, axis=0, out=b.dz3[:, :, 0])
            _reduce_add(b.dz3, axis=-2, out=glb, keepdims=True)
            _mm(b.dz3, lW.swapaxes(-1, -2), out=b.dr)
            _mm(b.r.swapaxes(-1, -2), b.dz3, out=glW)
            _gt(b.y2, 0.0, out=b.boolb)
            _mul(b.dr, b.boolb, out=b.dr)  # dy2
            _hw_bwd(b.dr, b.y1, b.tg2, b.z22, b.h2, b.s2, Wt2, Wg2,
                    gWt2, gbt2, gWg2, gbg2,
                    b.dt, b.dh, b.ds, b.dz1, b.boolb, b.tmp, b.dx, True)
            _hw_bwd(b.dx, b.xb, b.tg1, b.z21, b.h1, b.s1, Wt1, Wg1,
                    gWt1, gbt1, gWg1, gbg1,
                    b.dt, b.dh, b.ds, b.dz1, b.boolb, b.tmp, None, False)

        self._adam()
        return float(loss)

    def _adam(self) -> None:
        self._t += 1
        _adam_step(self._P, self._G, self._M, self._V, self._T1, self._T2,
                   self._t, self._lr, self._wd)

    def finalize(self) -> None:
        for p, view in zip(self._params, self._views_p):
            p.data = view.copy()


def _eval_highway(x, highway) -> np.ndarray:
    Wg, bg = highway.gate.weight.data, highway.gate.bias.data
    Wt, bt = highway.transform.weight.data, highway.transform.bias.data
    t = 1.0 / (1.0 + np.exp(-np.clip(x @ Wg + bg, -60.0, 60.0)))
    h = np.maximum(x @ Wt + bt, 0.0)
    return t * h + (1.0 - t) * x


class NumpyBackend:
    """The fused numpy kernels, bit-identical to the autodiff graph at float64.

    Stateless between runs: all run state lives on the trainer, so one
    instance (:data:`KERNELS`) serves the whole process.
    """

    def joint_trainer(self, model, features, labels, config):
        """A fused training run of the :class:`~repro.core.model.JointModel`
        ``model`` (the default trainer of
        :func:`repro.core.training.train_model`)."""
        return _FusedJointTrainer(model, features, labels, config)

    def predict_logits(self, model, features) -> np.ndarray:
        """Eval-mode logits ``[n, classes]`` of a
        :class:`~repro.core.model.JointModel` for a feature batch.

        Bit-identical at float64 to ``model.forward(features)`` in eval
        mode — the prediction path the golden metrics pin.  It applies no
        dropout and builds no graph, whatever the model's mode, and a
        malformed batch raises the graph forward's ``KeyError`` or
        ``ValueError``.
        """
        model.check_batch(features)
        branches, _, lin1, lin2 = model.kernel_layers()
        names = model.branch_names
        first = (
            np.asarray(features.branches[names[0]])
            if names
            else np.asarray(features.numeric)
        )
        n = first.shape[0]
        joint = np.empty((n, model.numeric_dim + len(names)))
        for bi, (name, (h1, h2, lin)) in enumerate(zip(names, branches)):
            x = np.asarray(features.branches[name], dtype=np.float64)
            y2 = _eval_highway(_eval_highway(x, h1), h2)
            r = np.maximum(y2, 0.0)
            joint[:, bi:bi + 1] = r @ lin.weight.data + lin.bias.data
        if model.numeric_dim:
            joint[:, len(names):] = np.asarray(
                features.numeric, dtype=np.float64
            )
        z4 = joint @ lin1.weight.data + lin1.bias.data
        r4 = np.maximum(z4, 0.0)
        return r4 @ lin2.weight.data + lin2.bias.data

    def sgns_step(self, in_table, out_table, sub_ids, sub_counts, contexts,
                  negatives, lr):
        """One skip-gram-negative-sampling batch update, in place.

        ``sub_ids [n, L]`` are the padded per-center subword id table rows
        and ``sub_counts [n]`` (integers) how many of each row are real;
        ``contexts`` the positive target ids; ``negatives [n, k]`` the
        sampled negative ids.  Called by
        :meth:`repro.embeddings.FastTextEmbedding._train_epoch` for every
        batch.  Both tables must be C-contiguous: they are updated through
        flat views, and a reshaped copy would drop the update silently.
        """
        if not (in_table.flags.c_contiguous and out_table.flags.c_contiguous):
            raise ValueError("sgns_step tables must be C-contiguous")
        n = contexts.shape[0]
        dim = in_table.shape[1]
        real = np.arange(sub_ids.shape[1]) < sub_counts[:, None]
        in_vecs = _subword_sums(in_table, sub_ids, sub_counts, real)
        in_vecs /= sub_counts[:, None]

        targets = np.concatenate([contexts[:, None], negatives], axis=1)
        labels = np.zeros((n, 1 + negatives.shape[1]))
        labels[:, 0] = 1.0
        out_vecs = out_table[targets]
        scores = np.einsum("nd,nkd->nk", in_vecs, out_vecs)
        g = (1.0 / (1.0 + np.exp(-np.clip(scores, -30, 30))) - labels) * lr
        grad_out = g[:, :, None] * in_vecs[:, None, :]
        _scatter_rows(out_table, targets.ravel(), -grad_out.reshape(-1, dim))
        grad_in = np.einsum("nk,nkd->nd", g, out_vecs) / sub_counts[:, None]
        _scatter_rows(in_table, sub_ids[real],
                      np.repeat(-grad_in, sub_counts, axis=0))


def _subword_sums(table, sub_ids, counts, real):
    """``[n, dim]`` sums of each center's real subword rows of ``table``.

    One gather-and-sum per group of centers with equal subword count,
    sorted so that each group's ids and sums are contiguous slices.  At
    ``dim == 1`` numpy sums an ``[n, L, 1]`` gather pairwise along ``L``,
    so the rounding depends on the padded width ``L``: that case keeps the
    padded gather, masked by ``real``.
    """
    n, dim = counts.shape[0], table.shape[1]
    if dim == 1:
        return (table[sub_ids] * real[:, :, None]).sum(axis=1)
    order = np.argsort(counts, kind="stable")
    ids = sub_ids[order]
    counts = counts[order]
    sums = np.empty((n, dim))
    starts = np.flatnonzero(np.diff(counts, prepend=-1))
    for lo, hi in zip(starts, [*starts[1:], n]):
        table[ids[lo:hi, :counts[lo]]].sum(axis=1, out=sums[lo:hi])
    unsorted = np.empty((n, dim))
    unsorted[order] = sums
    return unsorted


def _scatter_rows(table, rows, values):
    """``table[rows[i]] += values[i]`` for every ``i`` in order, in place.

    One 1-D ``np.add.at`` over the flat view of the C-contiguous ``table``,
    with the element indices in row-major order: each element receives the
    same additions, in the same order, as a row-wise ``np.add.at``.
    """
    dim = table.shape[1]
    flat = (rows[:, None] * dim + np.arange(dim)).ravel()
    np.add.at(table.reshape(-1), flat, values.ravel())


#: The process-wide kernel set.
KERNELS = NumpyBackend()
