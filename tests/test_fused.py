"""Kernel-vs-oracle equivalence suite for ``repro.nn.fused``.

``repro.nn.fused`` holds the one attention kernel and the one LayerNorm
kernel every model runs.  Each has a primitive-op oracle kept only for
these tests: ``fused.reference_causal_attention`` and
``repro.nn.functional.layer_norm``.  Call sites look the kernels up on
the module at call time, so :func:`oracle_kernels` swaps the oracles in
with ``unittest.mock.patch.object`` and whole models can run leg
against leg.  The contract (module docstring of :mod:`repro.nn.fused`):

- the kernel **forward is bitwise identical** to the oracle (same numpy
  operations, same order, same float32 scalars);
- the kernel **backward matches within 1e-6** (same math, fused
  evaluation order, so GEMMs may round differently in the last ulp);
- ``FlatAdam`` performs **bitwise identical** updates to ``Adam`` and
  their ``state_dict``s are interchangeable (checkpoint compatibility);
- the gradient arena changes buffer provenance only, never values.

:class:`TestOracleSeam` pins the seam itself: every call site must
reach the patched kernels, or the oracle comparisons below would
silently compare the kernel against itself.  The suite then drives both
legs over random shapes, padding masks, multi-head splits, dropout in
train and eval mode, and with anomaly-mode graph checking enabled, and
closes with the end-to-end guards: the committed golden top-10 fixture
must be reproduced by the oracle leg too (the kernel leg is covered by
``test_golden_regression``), and kill-and-resume must stay bitwise.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest

from repro.core import EarlyStopping, STiSANConfig, TrainConfig
from repro.core.iaab import IntervalAwareAttentionBlock, IntervalAwareAttentionLayer
from repro.core.loss import weighted_bce_loss
from repro.core.stisan import STiSAN
from repro.core.taad import TargetAwareAttentionDecoder, step_causal_mask
from repro.core.trainer import train_stisan
from repro.data import partition
from repro.faults import SimulatedCrash, fault_injection
from repro.nn import AnomalyError, anomaly_mode, fused
from repro.nn import functional as F
from repro.nn.attention import (
    MultiHeadAttention,
    SelfAttention,
    causal_mask,
    scaled_dot_product_attention,
)
from repro.nn.layers import Embedding, LayerNorm
from repro.nn.module import Module, Parameter
from repro.nn.optim import Adam, FlatAdam
from repro.nn.rowsparse import RowSparseGrad, dense_grad
from repro.nn.tensor import Tensor, grad_arena

BACKWARD_ATOL = 1e-6
BACKWARD_RTOL = 1e-5


@contextlib.contextmanager
def oracle_kernels():
    """Run every call site on the primitive-op oracles instead of the kernels."""
    with mock.patch.object(
        fused, "fused_causal_attention", fused.reference_causal_attention
    ), mock.patch.object(fused, "layer_norm", F.layer_norm):
        yield


def _leg(oracle):
    return oracle_kernels() if oracle else contextlib.nullcontext()


def _attention_case(seed):
    """Draw a random attention problem: shapes, mask, bias."""
    rng = np.random.default_rng(seed)
    batch_dims = [(), (int(rng.integers(1, 4)),),
                  (int(rng.integers(1, 3)), int(rng.integers(2, 4)))][seed % 3]
    n_q = int(rng.integers(1, 7))
    n_k = int(rng.integers(1, 7))
    d = int(rng.integers(1, 9))
    d_v = int(rng.integers(1, 9))
    q = rng.standard_normal(batch_dims + (n_q, d)).astype(np.float32)
    k = rng.standard_normal(batch_dims + (n_k, d)).astype(np.float32)
    v = rng.standard_normal(batch_dims + (n_k, d_v)).astype(np.float32)
    bias = None
    if seed % 2 == 0:
        bias = rng.standard_normal((n_q, n_k)).astype(np.float32)
    mask = None
    if seed % 3 != 2:
        # Padding-style mask over keys; a fully-blocked row is legal
        # (uniform softmax) and must match bitwise between legs too.
        mask = rng.random(batch_dims + (n_q, n_k)) < 0.3
    upstream = rng.standard_normal(batch_dims + (n_q, d_v)).astype(np.float32)
    return q, k, v, bias, mask, upstream


def _run_attention_leg(case, oracle=False):
    q_arr, k_arr, v_arr, bias_arr, mask, upstream = case
    q = Tensor(q_arr.copy(), requires_grad=True)
    k = Tensor(k_arr.copy(), requires_grad=True)
    v = Tensor(v_arr.copy(), requires_grad=True)
    bias = None if bias_arr is None else Tensor(bias_arr.copy(), requires_grad=True)
    with _leg(oracle):
        out = scaled_dot_product_attention(q, k, v, mask=mask, bias=bias)
        (out * Tensor(upstream)).sum().backward()
    grads = [q.grad, k.grad, v.grad] + ([] if bias is None else [bias.grad])
    return out.data, grads


class TestFusedAttentionProperty:
    @pytest.mark.parametrize("seed", range(12))
    def test_forward_bitwise_backward_close(self, seed):
        case = _attention_case(seed)
        ref_out, ref_grads = _run_attention_leg(case, oracle=True)
        fus_out, fus_grads = _run_attention_leg(case)
        assert np.array_equal(fus_out, ref_out), "fused forward is not bitwise"
        for name, rg, fg in zip("qkv b", ref_grads, fus_grads):
            np.testing.assert_allclose(
                fg, rg, atol=BACKWARD_ATOL, rtol=BACKWARD_RTOL,
                err_msg=f"grad({name}) diverged beyond 1e-6 (seed {seed})",
            )

    def test_return_weights_bitwise(self):
        case = _attention_case(4)
        q, k, v, bias_arr, mask, _ = case
        args = dict(mask=mask, bias=None if bias_arr is None else Tensor(bias_arr))
        with oracle_kernels():
            ref_out, ref_w = scaled_dot_product_attention(
                Tensor(q), Tensor(k), Tensor(v), return_weights=True, **args
            )
        fus_out, fus_w = scaled_dot_product_attention(
            Tensor(q), Tensor(k), Tensor(v), return_weights=True, **args
        )
        assert np.array_equal(fus_out.data, ref_out.data)
        assert np.array_equal(fus_w, ref_w)

    def test_anomaly_mode_clean(self):
        """The fused ops must pass the autograd sanitizer end to end."""
        case = _attention_case(6)
        with anomaly_mode():
            out_data, grads = _run_attention_leg(case)
        assert np.isfinite(out_data).all()
        for g in grads:
            assert np.isfinite(g).all()


def _paired_modules(factory, seed=3):
    """Build (oracle-leg, kernel-leg) instances with identical weights/RNG."""
    return factory(np.random.default_rng(seed)), factory(np.random.default_rng(seed))


def _param_grads_close(ref_mod, fus_mod):
    ref_params, fus_params = ref_mod.parameters(), fus_mod.parameters()
    assert len(ref_params) == len(fus_params)
    for i, (rp, fp) in enumerate(zip(ref_params, fus_params)):
        if rp.grad is None:
            assert fp.grad is None
            continue
        np.testing.assert_allclose(
            fp.grad, rp.grad, atol=BACKWARD_ATOL, rtol=BACKWARD_RTOL,
            err_msg=f"parameter {i} gradient diverged",
        )


def _seq_inputs(dim, b=3, n=8, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((b, n, dim)).astype(np.float32)
    bias = rng.standard_normal((b, n, n)).astype(np.float32)
    mask = np.broadcast_to(causal_mask(n), (b, n, n))
    upstream = rng.standard_normal((b, n, dim)).astype(np.float32)
    return x, bias, mask, upstream


class TestOracleSeam:
    """Every call site must reach the kernels through ``repro.nn.fused``.

    Sentinels patched over the two kernels count their calls (and
    delegate, so the forward still runs).  A site that bound a kernel
    at import time would miss them — and would then run the kernel in
    the oracle leg of every comparison below.
    """

    DIM = 12

    @contextlib.contextmanager
    def _sentinels(self):
        calls = {"attention": 0, "layer_norm": 0}
        kernels = {"attention": fused.fused_causal_attention,
                   "layer_norm": fused.layer_norm}

        def sentinel(key):
            def wrapped(*args, **kwargs):
                calls[key] += 1
                return kernels[key](*args, **kwargs)
            return wrapped

        with mock.patch.object(
            fused, "fused_causal_attention", sentinel("attention")
        ), mock.patch.object(fused, "layer_norm", sentinel("layer_norm")):
            yield calls

    def _sites(self):
        x, bias, mask, _ = _seq_inputs(self.DIM)
        rng = np.random.default_rng(3)
        cand = Tensor(rng.standard_normal((3, 4, self.DIM)).astype(np.float32))
        return {
            "iaab_1_head": (
                lambda: IntervalAwareAttentionLayer(self.DIM, rng=rng)(
                    Tensor(x), bias, mask),
                {"attention": 1, "layer_norm": 0},
            ),
            "taad": (
                lambda: TargetAwareAttentionDecoder(self.DIM)(cand, Tensor(x)),
                {"attention": 1, "layer_norm": 0},
            ),
            "self_attention": (
                lambda: SelfAttention(self.DIM, rng=rng)(Tensor(x), mask=mask),
                {"attention": 1, "layer_norm": 0},
            ),
            "multi_head_attention": (
                lambda: MultiHeadAttention(self.DIM, 3, rng=rng)(
                    Tensor(x), mask=causal_mask(x.shape[1])),
                {"attention": 1, "layer_norm": 0},
            ),
            "layer_norm": (
                lambda: LayerNorm(self.DIM)(Tensor(x)),
                {"attention": 0, "layer_norm": 1},
            ),
            # attn_norm + the pre-LN residual junction's ffn_norm.
            "iaab_block": (
                lambda: IntervalAwareAttentionBlock(
                    self.DIM, hidden_dim=24, rng=rng)(Tensor(x), bias, mask),
                {"attention": 1, "layer_norm": 2},
            ),
        }

    @pytest.mark.parametrize("site", [
        "iaab_1_head", "taad", "self_attention",
        "multi_head_attention", "layer_norm", "iaab_block",
    ])
    def test_call_site_reaches_patched_kernels(self, site):
        run, expected = self._sites()[site]
        with self._sentinels() as calls:
            run()
        assert calls == expected


class TestLayerNormOracle:
    SHAPES = [(6,), (5, 8), (3, 7, 4), (2, 3, 5, 6)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_forward_bitwise_backward_close(self, shape):
        rng = np.random.default_rng(len(shape))
        x_arr = rng.standard_normal(shape).astype(np.float32)
        upstream = rng.standard_normal(shape).astype(np.float32)
        legs = []
        for norm in (F.layer_norm, fused.layer_norm):
            alpha = Parameter(np.linspace(0.5, 1.5, shape[-1], dtype=np.float32))
            beta = Parameter(np.linspace(-0.2, 0.2, shape[-1], dtype=np.float32))
            x = Tensor(x_arr.copy(), requires_grad=True)
            out = norm(x, alpha, beta)
            (out * Tensor(upstream)).sum().backward()
            legs.append((out.data, [x.grad, alpha.grad, beta.grad]))
        (ref_out, ref_grads), (fus_out, fus_grads) = legs
        assert np.array_equal(fus_out, ref_out), "layer_norm forward not bitwise"
        for rg, fg in zip(ref_grads, fus_grads):
            np.testing.assert_allclose(
                fg, rg, atol=BACKWARD_ATOL, rtol=BACKWARD_RTOL
            )


class TestModuleEquivalence:
    DIM = 12

    def _inputs(self):
        return _seq_inputs(self.DIM)

    def _compare(self, ref, fus, forward, train=False):
        x_arr, *_ , upstream = self._inputs()
        (ref.train() if train else ref.eval())
        (fus.train() if train else fus.eval())
        xr = Tensor(x_arr.copy(), requires_grad=True)
        xf = Tensor(x_arr.copy(), requires_grad=True)
        with oracle_kernels():
            out_r = forward(ref, xr)
            (out_r * Tensor(upstream)).sum().backward()
        out_f = forward(fus, xf)
        (out_f * Tensor(upstream)).sum().backward()
        assert np.array_equal(out_f.data, out_r.data), "module forward not bitwise"
        np.testing.assert_allclose(
            xf.grad, xr.grad, atol=BACKWARD_ATOL, rtol=BACKWARD_RTOL
        )
        _param_grads_close(ref, fus)

    def test_iaab_layer(self):
        _, bias, mask, _ = self._inputs()
        ref, fus = _paired_modules(
            lambda rng: IntervalAwareAttentionLayer(self.DIM, rng=rng)
        )
        self._compare(ref, fus, lambda m, x: m(x, bias, mask))

    def test_iaab_layer_dropout_train_mode(self):
        """Dropout sits outside the kernel and consumes the same RNG
        stream in both legs, so train mode stays bitwise too."""
        _, bias, mask, _ = self._inputs()
        ref, fus = _paired_modules(
            lambda rng: IntervalAwareAttentionLayer(self.DIM, dropout=0.4, rng=rng)
        )
        self._compare(ref, fus, lambda m, x: m(x, bias, mask), train=True)

    def test_iaab_block(self):
        _, bias, mask, _ = self._inputs()
        ref, fus = _paired_modules(
            lambda rng: IntervalAwareAttentionBlock(
                self.DIM, hidden_dim=24, dropout=0.3, rng=rng
            )
        )
        self._compare(ref, fus, lambda m, x: m(x, bias, mask), train=True)

    def test_taad(self):
        rng = np.random.default_rng(9)
        b, q, c, n = 2, 5, 4, 5
        cand = rng.standard_normal((b, q, c, self.DIM)).astype(np.float32)
        enc_arr = rng.standard_normal((b, n, self.DIM)).astype(np.float32)
        mask = step_causal_mask(q, n)[None]
        upstream = rng.standard_normal((b, q, c, self.DIM)).astype(np.float32)
        outs, grads = [], []
        for oracle in (True, False):
            dec = TargetAwareAttentionDecoder(self.DIM)
            enc = Tensor(enc_arr.copy(), requires_grad=True)
            with _leg(oracle):
                s = dec(Tensor(cand.copy(), requires_grad=True), enc, attend_mask=mask)
                (s * Tensor(upstream)).sum().backward()
            outs.append(s.data)
            grads.append(enc.grad)
        assert np.array_equal(outs[1], outs[0]), "TAAD forward not bitwise"
        np.testing.assert_allclose(
            grads[1], grads[0], atol=BACKWARD_ATOL, rtol=BACKWARD_RTOL
        )


class TestArenaEquivalence:
    def test_arena_changes_nothing(self):
        case = _attention_case(7)
        bare_out, bare_grads = _run_attention_leg(case)
        with grad_arena() as arena:
            for _ in range(3):  # later iterations recycle pooled buffers
                pooled_out, pooled_grads = _run_attention_leg(case)
                arena.reset()
        assert arena.hits > 0, "arena was never actually recycled"
        assert np.array_equal(pooled_out, bare_out)
        for bg, pg in zip(bare_grads, pooled_grads):
            assert np.array_equal(pg, bg), "arena changed gradient values"


def _make_params(seed):
    rng = np.random.default_rng(seed)
    shapes = [(5, 3), (7,), (2, 3, 4), (1,)]
    return [Parameter(rng.standard_normal(s).astype(np.float32)) for s in shapes]


def _synthetic_grads(params, rng, missing_index=None):
    for i, p in enumerate(params):
        if i == missing_index:
            p.grad = None
        else:
            p.grad = rng.standard_normal(p.data.shape).astype(np.float32)


EMBED_ROWS, HELD_ROWS, FIRST_TOUCH = 200, 100, 5


def _make_sparse_params(seed):
    """An embedding ``(EMBED_ROWS, 3)`` row table plus dense parameters;
    the table's held-back rows include a ``-0.0`` and an ``inf``."""
    rng = np.random.default_rng(seed)
    shapes = [(EMBED_ROWS, 3), (7,), (2, 3, 4), (5,)]
    arrays = [rng.standard_normal(s).astype(np.float32) for s in shapes]
    arrays[0][EMBED_ROWS - 1] = [-0.0, np.inf, -0.0]
    arrays[0][HELD_ROWS + 3, 2] = -0.0
    return [Parameter(arrays[0], row_table=True)] + [Parameter(a) for a in arrays[1:]]


def _sparse_grads(params, step, rng):
    """Gradients as an embedding step sees them.

    - Table rows ``>= HELD_ROWS`` get ``-0.0`` (even steps) or ``+0.0``
      (odd steps) until ``FIRST_TOUCH``, then some of them are touched.
    - Touched rows hold explicit ``-0.0`` and ``+0.0`` entries too.
    - Parameter 2 has no gradient at steps 3-4; parameter 3 has none
      before step 6.
    """
    zero = -0.0 if step % 2 == 0 else 0.0
    table = np.full((EMBED_ROWS, 3), zero, dtype=np.float32)
    high = EMBED_ROWS if step >= FIRST_TOUCH else HELD_ROWS
    rows = rng.choice(high, size=6, replace=False)
    table[rows] = rng.standard_normal((6, 3)).astype(np.float32)
    table[rows[0], 1] = -0.0
    table[rows[1], 2] = 0.0
    params[0].grad = table
    for i, p in enumerate(params[1:], start=1):
        if (i == 2 and step in (3, 4)) or (i == 3 and step < 6):
            p.grad = None
        else:
            g = rng.standard_normal(p.data.shape).astype(np.float32)
            g.reshape(-1)[0] = -0.0
            p.grad = g


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)


def _assert_bitwise(ref_opt, flat_opt, where):
    """Parameters and both moments equal bit for bit: ``-0.0`` is not
    ``+0.0`` here, unlike ``np.array_equal``."""
    ref_state, flat_state = ref_opt.state_dict(), flat_opt.state_dict()
    pairs = [("param", [p.data for p in ref_opt.params], [p.data for p in flat_opt.params]),
             ("m", ref_state["m"], flat_state["m"]), ("v", ref_state["v"], flat_state["v"])]
    for what, ref, flat in pairs:
        for i, (r, f) in enumerate(zip(ref, flat)):
            np.testing.assert_array_equal(
                _bits(f), _bits(r), err_msg=f"{what} {i} diverged {where}"
            )


def _flat_step(opt, via):
    if via == "step":
        opt.step()
        return
    flat = np.empty(opt.flat_size, dtype=np.float32)
    touched = np.zeros(len(opt.params), dtype=np.uint8)
    opt.write_flat_grads(flat, touched=touched)
    opt.step_flat(flat, missing=np.flatnonzero(touched == 0))


def _run_sparse_pair(ref_opt, flat_opt, steps, via, seed=0, on_step=None):
    for step in range(steps):
        _sparse_grads(ref_opt.params, step, np.random.default_rng(seed + step))
        _sparse_grads(flat_opt.params, step, np.random.default_rng(seed + step))
        ref_opt.clip_grad_norm(1.0)
        flat_opt.clip_grad_norm(1.0)
        ref_opt.step()
        _flat_step(flat_opt, via)
        _assert_bitwise(ref_opt, flat_opt, f"at step {step}")
        if on_step is not None:
            on_step(step)


ADAM_KWARGS = [dict()]


class _TableModel(Module):
    """A 500-row embedding table (a ``FlatAdam`` row table) and a small
    dense projection."""

    def __init__(self, rng):
        super().__init__()
        self.table = Embedding(500, 4, padding_idx=0, rng=rng)
        self.proj = Parameter(rng.standard_normal(4).astype(np.float32))

    def loss(self, idx):
        return (self.table(idx) * self.proj).sum()


class TestFlatAdamBitwise:
    @pytest.mark.parametrize("via", ["step", "step_flat"])
    @pytest.mark.parametrize("kwargs", ADAM_KWARGS)
    def test_live_entries_match_dense_adam(self, kwargs, via):
        """Held-back embedding rows, ``±0`` gradients and missing
        parameters: twelve steps stay bitwise equal to the dense
        ``Adam``, and the held-back rows stay out of the table's live
        rows until they are touched."""
        ref_opt = Adam(_make_sparse_params(0), lr=1e-2, **kwargs)
        flat_opt = FlatAdam(_make_sparse_params(0), lr=1e-2, **kwargs)
        live = []

        def check_live(step):
            rows = flat_opt._tables[0].rows
            live.append(rows.size)
            if step < FIRST_TOUCH:
                assert rows.size and not (rows >= HELD_ROWS).any()

        _run_sparse_pair(ref_opt, flat_opt, 12, via, on_step=check_live)
        assert live[-1] > live[FIRST_TOUCH - 1]

    @pytest.mark.parametrize("kwargs", ADAM_KWARGS)
    def test_row_sparse_gradient_across_clip_threshold(self, kwargs):
        """An embedding table whose gradient arrives row-sparse from two
        lookups (padding included): the clip norm equals the dense
        gradient's bit for bit, whether clipping fires (even steps) or
        not (odd steps), and ``FlatAdam`` stays bitwise equal to
        ``Adam`` stepping the densified gradient."""
        legs = [_make_sparse_params(3) for _ in range(3)]
        dense_ref = Adam(legs[0], lr=1e-2, **kwargs)
        sparse_ref = Adam(legs[1], lr=1e-2, **kwargs)
        flat = FlatAdam(legs[2], lr=1e-2, **kwargs)
        for step in range(8):
            rng = np.random.default_rng(200 + step)
            src = rng.integers(0, HELD_ROWS, size=(4, 6))
            src[0, :2] = 0  # padding lookups list row 0 with zero values
            cand = rng.integers(0, EMBED_ROWS if step >= FIRST_TOUCH else HELD_ROWS, size=(4, 5))
            seeds = [rng.standard_normal((4, 6, 3)), rng.standard_normal((4, 5, 3))]
            dense = [rng.standard_normal(p.data.shape).astype(np.float32) for p in legs[0][1:]]
            max_norm = 1e-3 if step % 2 == 0 else 1e6
            norms = []
            for params, opt in zip(legs, (dense_ref, sparse_ref, flat)):
                opt.zero_grad()
                a = F.embedding_lookup(params[0], src, padding_idx=0)
                b = F.embedding_lookup(params[0], cand)
                ((a * Tensor(seeds[0])).sum() + (b * Tensor(seeds[1])).sum()).backward()
                assert isinstance(params[0].grad, RowSparseGrad)
                if opt is dense_ref:
                    params[0].grad = dense_grad(params[0].grad)
                for p, g in zip(params[1:], dense):
                    p.grad = g.copy()
                norms.append(opt.clip_grad_norm(max_norm))
                opt.step()
            assert norms[0] > 1e-3
            assert norms[1] == norms[0] and norms[2] == norms[0], f"norms {norms} at step {step}"
            _assert_bitwise(dense_ref, sparse_ref, f"(Adam, row-sparse) at step {step}")
            _assert_bitwise(dense_ref, flat, f"(FlatAdam, row-sparse) at step {step}")

    def test_table_no_larger_than_the_rest_stays_in_the_flat_buffer(self):
        """A small embedding table is stepped in the flat buffer from
        its row-sparse gradient, bitwise as ``Adam`` steps it."""
        legs = []
        for _ in range(2):
            rng = np.random.default_rng(7)
            legs.append([Parameter(rng.standard_normal((4, 3)).astype(np.float32), row_table=True),
                         Parameter(rng.standard_normal(50).astype(np.float32))])
        ref_opt, flat_opt = Adam(legs[0], lr=1e-2), FlatAdam(legs[1], lr=1e-2)
        assert not flat_opt._tables
        for step in range(4):
            idx = np.random.default_rng(step).integers(0, 4, size=5)
            for params, opt in zip(legs, (ref_opt, flat_opt)):
                opt.zero_grad()
                (F.embedding_lookup(params[0], idx).sum() + (params[1] * 2.0).sum()).backward()
                opt.clip_grad_norm(1.0)
                opt.step()
            _assert_bitwise(ref_opt, flat_opt, f"at step {step}")

    def test_padding_only_batch_bumps_the_table_version(self):
        """A row table whose only lookups are padding has a gradient but
        no live rows: like ``Adam``, the step still bumps its version.
        ``Adam`` re-points it at a fresh array; ``FlatAdam`` keeps the
        array and its bits."""
        legs = [_make_sparse_params(4) for _ in range(2)]
        ref_opt, flat_opt = Adam(legs[0], lr=1e-2), FlatAdam(legs[1], lr=1e-2)
        assert 0 in flat_opt._tables
        pad = np.zeros((3, 4), dtype=np.int64)
        for step in range(2):
            for params, opt in zip(legs, (ref_opt, flat_opt)):
                opt.zero_grad()
                F.embedding_lookup(params[0], pad, padding_idx=0).sum().backward()
                assert isinstance(params[0].grad, RowSparseGrad)
                before, version = params[0].data, params[0]._version
                bits = _bits(before).copy()
                opt.step()
                if opt is flat_opt:
                    assert params[0].data is before
                    np.testing.assert_array_equal(_bits(params[0].data), bits)
                else:
                    assert params[0].data is not before
                assert params[0]._version == version + 1
            assert not flat_opt._tables[0].rows.size
            assert legs[1][0]._version == legs[0][0]._version
            _assert_bitwise(ref_opt, flat_opt, f"at step {step}")

    def test_untouched_rows_keep_their_bits(self):
        """The table is stepped in place, and rows no step makes live
        keep their exact bit patterns: the held-back rows, with their
        ``-0.0`` and ``inf`` entries, and the low rows never drawn."""
        params = _make_sparse_params(5)
        table = params[0].data
        initial = _bits(table).copy()
        opt = FlatAdam(params, lr=1e-2)
        for step in range(FIRST_TOUCH):
            _sparse_grads(params, step, np.random.default_rng(80 + step))
            opt.clip_grad_norm(1.0)
            opt.step()
            assert params[0].data is table
        live = opt._tables[0].rows
        dead = np.setdiff1d(np.arange(EMBED_ROWS), live)
        assert live.size and (dead >= HELD_ROWS).sum() == EMBED_ROWS - HELD_ROWS
        assert (dead < HELD_ROWS).any()
        np.testing.assert_array_equal(_bits(table[dead]), initial[dead])
        np.testing.assert_array_equal(
            _bits(table[EMBED_ROWS - 1]), _bits(np.array([-0.0, np.inf, -0.0])))
        assert _bits(table[HELD_ROWS + 3, 2]) == _bits(np.float32(-0.0))
        assert not np.array_equal(_bits(table[live]), initial[live])

    def test_snapshots_survive_in_place_steps(self):
        """A ``Module.state_dict`` snapshot and an ``EarlyStopping``
        best state taken before three more steps of a 500-row table
        stay bitwise unchanged, and ``restore_best`` brings them back."""
        model = _TableModel(np.random.default_rng(9))
        opt = FlatAdam(model.parameters(), lr=1e-2)
        assert len(opt._tables) == 1

        def step(seed):
            rng = np.random.default_rng(seed)
            opt.zero_grad()
            model.loss(rng.integers(0, 500, size=(4, 6))).backward()
            opt.step()

        step(0)
        snapshot = model.state_dict()
        stopper = EarlyStopping(patience=2)
        stopper.update(0, 1.0, model)
        bits = {name: _bits(value).copy() for name, value in snapshot.items()}
        table = model.table.weight.data
        for seed in range(1, 4):
            step(seed)
        assert model.table.weight.data is table
        assert not np.array_equal(_bits(table), bits["table.weight"])
        for name, value in snapshot.items():
            np.testing.assert_array_equal(_bits(value), bits[name], err_msg=name)
            np.testing.assert_array_equal(_bits(stopper._best_state[name]), bits[name],
                                          err_msg=name)
        assert stopper.restore_best(model)
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(_bits(value), bits[name], err_msg=name)
        assert model.table.weight.data is not stopper._best_state["table.weight"]

    def test_in_place_step_trips_anomaly_mode(self):
        """A graph that read the table before a step cannot be
        differentiated after it: the in-place write bumps the version."""
        model = _TableModel(np.random.default_rng(10))
        opt = FlatAdam(model.parameters(), lr=1e-2)
        idx = np.random.default_rng(0).integers(1, 500, size=(4, 6))
        with anomaly_mode():
            model.loss(idx).backward()
            stale = model.table(idx).sum()  # reads no dense parameter
            table = model.table.weight.data
            opt.step()
            assert model.table.weight.data is table
            with pytest.raises(AnomalyError, match="version"):
                stale.backward()

    @pytest.mark.parametrize("via", ["step", "step_flat"])
    def test_load_state_dict_with_negative_zero_moments(self, via):
        """A reference checkpoint whose moments hold ``-0.0`` in
        otherwise untouched entries: a dense step turns those moments to
        ``+0.0`` and, with a ``-0.0`` gradient, a ``-0.0`` parameter to
        ``+0.0``.  The restored ``FlatAdam`` must count them live."""
        ref_opt = Adam(_make_sparse_params(1), lr=1e-2)
        for step in range(3):
            _sparse_grads(ref_opt.params, step, np.random.default_rng(50 + step))
            ref_opt.step()
        state = ref_opt.state_dict()
        row = HELD_ROWS + 3
        assert not state["m"][0][row:].any() and not state["v"][0][row:].any()
        state["m"][0][row, 2] = -0.0   # its parameter entry is -0.0 too
        state["m"][0][row + 1, 0] = -0.0
        state["v"][0][row + 2, 1] = -0.0
        ref_opt.load_state_dict(state)
        flat_opt = FlatAdam([Parameter(p.data.copy()) for p in ref_opt.params], lr=1e-2)
        flat_opt.load_state_dict(state)
        before = _bits(ref_opt.params[0].data[row, 2])
        _run_sparse_pair(ref_opt, flat_opt, 8, via, seed=60)
        assert _bits(ref_opt.params[0].data[row, 2]) != before, "-0.0 parameter did not move"
        assert ref_opt.t == flat_opt.t == 11

    @pytest.mark.parametrize("kwargs", ADAM_KWARGS)
    def test_bitwise_vs_adam(self, kwargs):
        ref_params, flat_params = _make_params(0), _make_params(0)
        ref_opt = Adam(ref_params, lr=1e-2, **kwargs)
        flat_opt = FlatAdam(flat_params, lr=1e-2, **kwargs)
        for step in range(10):
            rng = np.random.default_rng(100 + step)
            missing = 1 if step == 4 else None  # param-skip semantics
            _synthetic_grads(ref_params, rng, missing_index=missing)
            rng = np.random.default_rng(100 + step)
            _synthetic_grads(flat_params, rng, missing_index=missing)
            ref_opt.clip_grad_norm(5.0)
            flat_opt.clip_grad_norm(5.0)
            ref_opt.step()
            flat_opt.step()
            for i, (rp, fp) in enumerate(zip(ref_params, flat_params)):
                assert np.array_equal(fp.data, rp.data), (
                    f"param {i} diverged at step {step}"
                )
        ref_state, flat_state = ref_opt.state_dict(), flat_opt.state_dict()
        for rm, fm in zip(ref_state["m"], flat_state["m"]):
            assert np.array_equal(fm, rm)
        for rv, fv in zip(ref_state["v"], flat_state["v"]):
            assert np.array_equal(fv, rv)

    def test_state_dict_interop(self):
        """Checkpoints written by either optimizer restore into the
        other and continue bitwise — resume stays optimizer-agnostic."""
        ref_params, flat_params = _make_params(1), _make_params(1)
        ref_opt = Adam(ref_params, lr=1e-2)
        flat_opt = FlatAdam(flat_params, lr=1e-2)
        for step in range(3):
            rng = np.random.default_rng(step)
            _synthetic_grads(ref_params, rng)
            rng = np.random.default_rng(step)
            _synthetic_grads(flat_params, rng)
            ref_opt.step()
            flat_opt.step()
        # Cross-load: Adam state into a fresh FlatAdam and vice versa.
        swapped_flat = FlatAdam([Parameter(p.data.copy()) for p in ref_params], lr=1e-2)
        swapped_flat.load_state_dict(ref_opt.state_dict())
        swapped_ref = Adam([Parameter(p.data.copy()) for p in flat_params], lr=1e-2)
        swapped_ref.load_state_dict(flat_opt.state_dict())
        for opt in (ref_opt, flat_opt, swapped_flat, swapped_ref):
            rng = np.random.default_rng(99)
            _synthetic_grads(opt.params, rng)
            opt.step()
        for i in range(len(ref_params)):
            expected = ref_opt.params[i].data
            for opt in (flat_opt, swapped_flat, swapped_ref):
                assert np.array_equal(opt.params[i].data, expected), (
                    f"param {i} diverged after state_dict round-trip"
                )

    def test_external_assign_resync(self):
        """Model.load_state_dict replaces parameter arrays via assign_;
        FlatAdam must detect the detach and keep updating correctly."""
        params = _make_params(2)
        opt = FlatAdam(params, lr=1e-2)
        rng = np.random.default_rng(0)
        _synthetic_grads(params, rng)
        opt.step()
        snapshot = [p.data.copy() for p in params]
        params[0].assign_(np.zeros_like(params[0].data))  # detached view
        ref_params = [Parameter(p.data.copy()) for p in params]
        ref_opt = Adam(ref_params, lr=1e-2)
        ref_opt.load_state_dict(opt.state_dict())
        for step in range(3):
            rng = np.random.default_rng(10 + step)
            _synthetic_grads(params, rng)
            rng = np.random.default_rng(10 + step)
            _synthetic_grads(ref_params, rng)
            opt.step()
            ref_opt.step()
        for i, (p, rp) in enumerate(zip(params, ref_params)):
            assert np.array_equal(p.data, rp.data), f"param {i} diverged after assign_"
        assert not np.array_equal(params[0].data, snapshot[0])


MAX_LEN = 10


def _build_stisan(dataset, num_blocks=2, dropout=0.3):
    cfg = STiSANConfig.small(
        max_len=MAX_LEN, poi_dim=8, geo_dim=8, num_blocks=num_blocks,
        dropout=dropout,
    )
    return STiSAN(dataset.num_pois, dataset.poi_coords, cfg,
                  rng=np.random.default_rng(5))


def _one_batch(dataset):
    from repro.data.batching import BatchIterator
    from repro.data.negatives import NearestNegativeSampler

    train, _ = partition(dataset, n=MAX_LEN)
    rng = np.random.default_rng(0)
    sampler = NearestNegativeSampler(dataset, num_negatives=3, pool_size=20, rng=rng)
    iterator = BatchIterator(train, batch_size=4, sampler=sampler, rng=rng)
    return next(iterator.iter_order(iterator.epoch_order()))


@pytest.mark.slow
class TestModelLevelEquivalence:
    def test_forward_train_bitwise(self, micro_dataset):
        losses, grads = [], []
        for oracle in (True, False):
            batch = _one_batch(micro_dataset)
            model = _build_stisan(micro_dataset)
            model.train()
            with _leg(oracle):
                pos, neg = model.forward_train(
                    batch.src, batch.times, batch.tgt, batch.negatives
                )
                loss = weighted_bce_loss(pos, neg, batch.target_mask, temperature=1.0)
                loss.backward()
            losses.append(float(loss.data))
            grads.append([None if p.grad is None else dense_grad(p.grad) for p in model.parameters()])
        assert losses[1] == losses[0], "model-level kernel loss is not bitwise"
        for i, (rg, fg) in enumerate(zip(*grads)):
            if rg is None:
                assert fg is None
                continue
            np.testing.assert_allclose(
                fg, rg, atol=BACKWARD_ATOL, rtol=BACKWARD_RTOL,
                err_msg=f"model parameter {i} gradient diverged",
            )

    def test_flat_adam_loss_curve_equal(self, micro_dataset):
        """A FlatAdam training loop on the kernels tracks the oracle leg
        step for step: the first loss bitwise, later losses within the
        backward tolerance the updates inherit."""
        curves = []
        for oracle in (True, False):
            batch = _one_batch(micro_dataset)
            model = _build_stisan(micro_dataset, num_blocks=1)
            model.train()
            opt = FlatAdam(model.parameters(), lr=1e-2)
            curve = []
            with _leg(oracle):
                for _ in range(4):
                    opt.zero_grad()
                    pos, neg = model.forward_train(
                        batch.src, batch.times, batch.tgt, batch.negatives
                    )
                    loss = weighted_bce_loss(
                        pos, neg, batch.target_mask, temperature=1.0
                    )
                    loss.backward()
                    opt.clip_grad_norm(5.0)
                    opt.step()
                    curve.append(float(loss.data))
            curves.append(curve)
        ref, fus = curves
        assert fus[0] == ref[0], "first-step loss is not bitwise"
        np.testing.assert_allclose(fus, ref, rtol=BACKWARD_RTOL, atol=BACKWARD_ATOL)

    def test_kill_and_resume_bitwise_with_fusion(self, micro_dataset, tmp_path):
        """Bitwise kill-and-resume holds on the fused kernels:
        crash + resume reproduces the uninterrupted run to the last bit."""
        train, _ = partition(micro_dataset, n=MAX_LEN)
        config = TrainConfig(epochs=1, batch_size=4, num_negatives=3, seed=11)

        def fresh():
            return _build_stisan(micro_dataset, num_blocks=1, dropout=0.1)

        baseline = fresh()
        train_stisan(baseline, micro_dataset, train, config)
        with pytest.raises(SimulatedCrash):
            with fault_injection(seed=0, crash_at_step=2):
                train_stisan(fresh(), micro_dataset, train, config,
                             checkpoint_dir=tmp_path, checkpoint_every=1)
        resumed_model = fresh()
        resumed = train_stisan(resumed_model, micro_dataset, train, config,
                               checkpoint_dir=tmp_path, checkpoint_every=1,
                               resume=True)
        assert resumed.resumed_from_step == 2
        expected, got = baseline.state_dict(), resumed_model.state_dict()
        assert set(expected) == set(got)
        for name in expected:
            assert np.array_equal(expected[name], got[name]), (
                f"parameter {name} diverged across kill-and-resume"
            )


@pytest.mark.slow
class TestGoldenBothLegs:
    def test_reference_leg_reproduces_golden(self):
        """The committed golden top-10s predate the fused kernels; the
        oracle leg must still reproduce them exactly."""
        import json

        from tests.golden.regenerate import GOLDEN_PATH, build_golden

        committed = json.loads(GOLDEN_PATH.read_text())
        with oracle_kernels():
            fresh = build_golden()
        for user, expected in committed["users"].items():
            got = fresh["users"][user]
            assert got["pois"] == expected["pois"], (
                f"user {user} ranking drifted on the oracle leg"
            )
            np.testing.assert_allclose(
                np.asarray(got["scores"]), np.asarray(expected["scores"]),
                rtol=0.0, atol=1e-6,
            )
