"""Numerical gradient checks for the autograd engine.

Every differentiable primitive is validated against central finite
differences.  A failure here invalidates every model in the repo, so
these tests are deliberately exhaustive.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.fused import fused_causal_attention, layer_norm
from repro.nn.rowsparse import dense_grad
from repro.nn.tensor import Tensor, grad_arena

RNG = np.random.default_rng(0)


def numerical_grad(fn, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central finite-difference gradient of scalar fn at x."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def check(fn_tensor, shape, atol=2e-2, rtol=2e-2, low=-2.0, high=2.0):
    """Compare autograd vs numerical gradient for scalar-valued fn."""
    x_data = RNG.uniform(low, high, size=shape).astype(np.float64)

    def fn_np(arr):
        t = Tensor(arr.astype(np.float32), requires_grad=True)
        return float(fn_tensor(t).data)

    x = Tensor(x_data.astype(np.float32), requires_grad=True)
    out = fn_tensor(x)
    out.backward()
    num = numerical_grad(fn_np, x_data.copy())
    np.testing.assert_allclose(x.grad, num, atol=atol, rtol=rtol)


class TestElementwise:
    def test_add(self):
        check(lambda x: (x + 3.0).sum(), (4, 5))

    def test_sub(self):
        check(lambda x: (5.0 - x).sum(), (3, 2))

    def test_mul(self):
        check(lambda x: (x * x).sum(), (4,))

    def test_div(self):
        check(lambda x: (x / 2.5).sum(), (4, 3))

    def test_rdiv(self):
        check(lambda x: (1.0 / x).sum(), (5,), low=0.5, high=2.0)

    def test_neg(self):
        check(lambda x: (-x).sum(), (3, 3))

    def test_pow(self):
        check(lambda x: (x ** 3).sum(), (4,))

    def test_exp(self):
        check(lambda x: x.exp().sum(), (3, 4), low=-1, high=1)

    def test_log(self):
        check(lambda x: x.log().sum(), (4,), low=0.5, high=3.0)

    def test_tanh(self):
        check(lambda x: x.tanh().sum(), (5,))

    def test_sigmoid(self):
        check(lambda x: x.sigmoid().sum(), (5,))

    def test_relu(self):
        # Keep away from the kink at 0.
        check(lambda x: x.relu().sum(), (6,), low=0.1, high=2.0)
        check(lambda x: x.relu().sum(), (6,), low=-2.0, high=-0.1)

    def test_sqrt(self):
        check(lambda x: x.sqrt().sum(), (4,), low=0.5, high=4.0)

    def test_clip_interior(self):
        check(lambda x: x.clip(-10, 10).sum(), (4,))

    def test_abs(self):
        check(lambda x: F.abs_tensor(x).sum(), (5,), low=0.2, high=2.0)

    def test_softplus(self):
        check(lambda x: F.softplus(x).sum(), (5,))

    def test_log_sigmoid(self):
        check(lambda x: F.log_sigmoid(x).sum(), (5,))



class TestBroadcasting:
    def test_add_broadcast(self):
        b = Tensor(RNG.normal(size=(1, 5)).astype(np.float32), requires_grad=True)
        x = Tensor(RNG.normal(size=(4, 5)).astype(np.float32), requires_grad=True)
        out = (x + b).sum()
        out.backward()
        assert b.grad.shape == (1, 5)
        np.testing.assert_allclose(b.grad, np.full((1, 5), 4.0))

    def test_mul_broadcast_scalar_tensor(self):
        s = Tensor(np.float32(2.0), requires_grad=True)
        x = Tensor(np.ones((3, 3), dtype=np.float32), requires_grad=True)
        (x * s).sum().backward()
        assert s.grad.shape == ()
        assert float(s.grad) == pytest.approx(9.0)

    def test_bias_vector_broadcast(self):
        bias = Tensor(RNG.normal(size=(7,)).astype(np.float32), requires_grad=True)
        x = Tensor(RNG.normal(size=(2, 3, 7)).astype(np.float32))
        (x + bias).sum().backward()
        np.testing.assert_allclose(bias.grad, np.full((7,), 6.0))


class TestMatmul:
    def test_free_function_matches_operator(self):
        a = Tensor(RNG.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
        b = Tensor(RNG.normal(size=(4, 2)).astype(np.float32), requires_grad=True)
        out = nn.matmul(a, b)
        np.testing.assert_allclose(out.data, (a @ b).data)
        out.sum().backward()
        assert a.grad.shape == (3, 4) and b.grad.shape == (4, 2)

    def test_2d(self):
        a_data = RNG.normal(size=(3, 4)).astype(np.float64)
        b_data = RNG.normal(size=(4, 2)).astype(np.float64)
        a = Tensor(a_data.astype(np.float32), requires_grad=True)
        b = Tensor(b_data.astype(np.float32), requires_grad=True)
        (a @ b).sum().backward()
        na = numerical_grad(
            lambda arr: float((Tensor(arr.astype(np.float32)) @ Tensor(b_data.astype(np.float32))).sum().data),
            a_data.copy(),
        )
        nb = numerical_grad(
            lambda arr: float((Tensor(a_data.astype(np.float32)) @ Tensor(arr.astype(np.float32))).sum().data),
            b_data.copy(),
        )
        np.testing.assert_allclose(a.grad, na, atol=2e-2, rtol=2e-2)
        np.testing.assert_allclose(b.grad, nb, atol=2e-2, rtol=2e-2)

    def test_batched(self):
        a = Tensor(RNG.normal(size=(2, 3, 4)).astype(np.float32), requires_grad=True)
        b = Tensor(RNG.normal(size=(2, 4, 5)).astype(np.float32), requires_grad=True)
        out = a @ b
        assert out.shape == (2, 3, 5)
        out.sum().backward()
        assert a.grad.shape == (2, 3, 4)
        assert b.grad.shape == (2, 4, 5)

    def test_broadcast_batch(self):
        a = Tensor(RNG.normal(size=(2, 3, 4)).astype(np.float32), requires_grad=True)
        w = Tensor(RNG.normal(size=(4, 5)).astype(np.float32), requires_grad=True)
        (a @ w).sum().backward()
        assert w.grad.shape == (4, 5)
        # Gradient of sum(a @ w) w.r.t. w is sum over batch of a^T @ ones.
        expected = np.swapaxes(a.data, -1, -2).reshape(-1, 3) @ np.ones((3, 5))
        expected = (np.swapaxes(a.data, -1, -2) @ np.ones((2, 3, 5))).sum(0)
        np.testing.assert_allclose(w.grad, expected, atol=1e-4)

    def test_vec_mat(self):
        a = Tensor(RNG.normal(size=(4,)).astype(np.float32), requires_grad=True)
        b = Tensor(RNG.normal(size=(4, 3)).astype(np.float32), requires_grad=True)
        (a @ b).sum().backward()
        assert a.grad.shape == (4,)
        assert b.grad.shape == (4, 3)
        np.testing.assert_allclose(a.grad, b.data.sum(axis=1), atol=1e-5)

    def test_mat_vec(self):
        a = Tensor(RNG.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
        b = Tensor(RNG.normal(size=(4,)).astype(np.float32), requires_grad=True)
        (a @ b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, a.data.sum(axis=0), atol=1e-5)


class TestReductionsAndShape:
    def test_sum_axis(self):
        check(lambda x: (x.sum(axis=0) ** 2).sum(), (3, 4))

    def test_sum_keepdims(self):
        check(lambda x: (x.sum(axis=1, keepdims=True) * x).sum(), (3, 4))

    def test_mean(self):
        check(lambda x: (x.mean(axis=-1) ** 2).sum(), (3, 4))

    def test_var(self):
        check(lambda x: x.var(axis=-1).sum(), (3, 6))

    def test_max_unique(self):
        x_data = np.arange(12, dtype=np.float32).reshape(3, 4)
        x = Tensor(x_data, requires_grad=True)
        x.max(axis=1).sum().backward()
        expected = np.zeros((3, 4), dtype=np.float32)
        expected[:, 3] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_reshape(self):
        check(lambda x: (x.reshape(2, 6) ** 2).sum(), (3, 4))

    def test_transpose(self):
        check(lambda x: (x.transpose() @ x).sum(), (3, 4))

    def test_transpose_axes(self):
        x = Tensor(RNG.normal(size=(2, 3, 4)).astype(np.float32), requires_grad=True)
        x.transpose(1, 0, 2).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3, 4)))

    def test_getitem_slice(self):
        x = Tensor(RNG.normal(size=(4, 5)).astype(np.float32), requires_grad=True)
        x[1:3].sum().backward()
        expected = np.zeros((4, 5), dtype=np.float32)
        expected[1:3] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_getitem_fancy_repeated(self):
        x = Tensor(np.ones((3, 2), dtype=np.float32), requires_grad=True)
        idx = np.array([0, 0, 2])
        x[idx].sum().backward()
        expected = np.array([[2, 2], [0, 0], [1, 1]], dtype=np.float32)
        np.testing.assert_allclose(x.grad, expected)

    def test_concatenate(self):
        a = Tensor(RNG.normal(size=(2, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(RNG.normal(size=(2, 2)).astype(np.float32), requires_grad=True)
        nn.concatenate([a, b], axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))
        np.testing.assert_allclose(b.grad, np.ones((2, 2)))

    def test_split(self):
        weights = RNG.normal(size=(6, 3)).astype(np.float32)

        def fn(x):
            pieces = nn.split(x, [(1, 3), (3, 1, 3), (2, 3)])
            return (pieces[0] * pieces[0]).sum() + (pieces[2] * weights[4:]).sum()

        check(fn, (6, 3))

    def test_split_views_and_unused_pieces(self):
        x = Tensor(RNG.normal(size=(5, 2)).astype(np.float32), requires_grad=True)
        first, second = nn.split(x, [(1, 2, 2), (3, 2)])
        assert first.shape == (1, 2, 2) and np.shares_memory(first.data, x.data)
        np.testing.assert_array_equal(nn.join([first, second], (2,)).data, x.data)
        second.sum().backward()
        np.testing.assert_array_equal(x.grad, [[0, 0], [0, 0], [1, 1], [1, 1], [1, 1]])
        with pytest.raises(ValueError, match="rows"):
            nn.split(x, [(2, 2), (2, 2)])

    def test_join(self):
        weights = RNG.normal(size=(5, 2)).astype(np.float32)
        other = Tensor(RNG.normal(size=(1, 3, 2)).astype(np.float32))
        check(lambda x: (nn.join([x, other], (2,)) * weights).sum(), (2, 2))

    def test_scatter_rows(self):
        index = np.array([[4, 0], [2, 5]])
        weights = RNG.normal(size=(2, 3, 2)).astype(np.float32)
        check(lambda x: (F.scatter_rows(x, index, (2, 3)) * weights).sum(), (2, 2, 2))
        out = F.scatter_rows(Tensor(np.ones((2, 2, 1), dtype=np.float32)), index, (2, 3))
        np.testing.assert_array_equal(out.data[..., 0], [[1, 0, 1], [0, 1, 1]])

    def test_stack(self):
        a = Tensor(RNG.normal(size=(3,)).astype(np.float32), requires_grad=True)
        b = Tensor(RNG.normal(size=(3,)).astype(np.float32), requires_grad=True)
        out = nn.stack([a, b], axis=0)
        assert out.shape == (2, 3)
        (out * out).sum().backward()
        np.testing.assert_allclose(a.grad, 2 * a.data, atol=1e-5)

    def test_where(self):
        cond = np.array([True, False, True])
        a = Tensor(RNG.normal(size=(3,)).astype(np.float32), requires_grad=True)
        b = Tensor(RNG.normal(size=(3,)).astype(np.float32), requires_grad=True)
        nn.where(cond, a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [1, 0, 1])
        np.testing.assert_allclose(b.grad, [0, 1, 0])

    def test_masked_fill(self):
        x = Tensor(RNG.normal(size=(3, 3)).astype(np.float32), requires_grad=True)
        mask = np.triu(np.ones((3, 3), dtype=bool), k=1)
        x.masked_fill(mask, -1e9).clip(-10, 10).sum().backward()
        assert (x.grad[mask] == 0).all()
        assert (x.grad[~mask] == 1).all()


class TestFunctional:
    def test_softmax_grad(self):
        check(lambda x: (F.softmax(x, axis=-1) ** 2).sum(), (3, 5))

    def test_softmax_rows_sum_to_one(self):
        x = Tensor(RNG.normal(size=(4, 6)).astype(np.float32))
        s = F.softmax(x, axis=-1)
        np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(4), atol=1e-6)

    def test_softmax_stability(self):
        x = Tensor(np.array([[1000.0, 1000.0, -1000.0]], dtype=np.float32))
        s = F.softmax(x, axis=-1)
        assert np.isfinite(s.data).all()
        np.testing.assert_allclose(s.data[0, :2], [0.5, 0.5], atol=1e-6)

    def test_log_softmax_grad(self):
        check(lambda x: (F.log_softmax(x, axis=-1) * 0.3).sum(), (2, 4))

    def test_layer_norm_grad(self):
        alpha = Tensor(np.ones(6, dtype=np.float32))
        beta = Tensor(np.zeros(6, dtype=np.float32))
        check(lambda x: (F.layer_norm(x, alpha, beta) ** 2).sum(), (3, 6))

    def test_layer_norm_statistics(self):
        alpha = Tensor(np.ones(8, dtype=np.float32))
        beta = Tensor(np.zeros(8, dtype=np.float32))
        x = Tensor(RNG.normal(size=(5, 8)).astype(np.float32) * 10 + 3)
        out = F.layer_norm(x, alpha, beta).data
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(5), atol=1e-4)
        np.testing.assert_allclose(out.std(axis=-1), np.ones(5), atol=1e-2)

    def test_bce_with_logits_matches_reference(self):
        logits = Tensor(np.array([2.0, -1.0, 0.5], dtype=np.float32), requires_grad=True)
        targets = np.array([1.0, 0.0, 1.0])
        loss = F.binary_cross_entropy_with_logits(logits, targets)
        x = logits.data.astype(np.float64)
        ref = np.mean(np.maximum(x, 0) - x * targets + np.log1p(np.exp(-np.abs(x))))
        assert float(loss.data) == pytest.approx(ref, abs=1e-5)
        loss.backward()
        sig = 1 / (1 + np.exp(-x))
        np.testing.assert_allclose(logits.grad, (sig - targets) / 3, atol=1e-5)

    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((2, 4), dtype=np.float32), requires_grad=True)
        loss = F.cross_entropy(logits, np.array([0, 3]))
        assert float(loss.data) == pytest.approx(np.log(4), abs=1e-5)

    def test_embedding_lookup_grad_and_padding(self):
        w = Tensor(RNG.normal(size=(5, 3)).astype(np.float32), requires_grad=True)
        idx = np.array([0, 0, 4, 2])
        out = F.embedding_lookup(w, idx, padding_idx=0)
        np.testing.assert_allclose(out.data[0], np.zeros(3))
        out.sum().backward()
        grad = dense_grad(w.grad)
        np.testing.assert_allclose(grad[0], np.zeros(3))
        np.testing.assert_allclose(grad[4], np.ones(3))
        np.testing.assert_allclose(grad[1], np.zeros(3))


class TestFusedOps:
    """Finite-difference coverage for the hand-derived backward passes
    of the fused kernels (repro.nn.fused)."""

    def _attention_inputs(self, n=4, d=3):
        q = RNG.normal(size=(n, d)).astype(np.float64)
        k = RNG.normal(size=(n, d)).astype(np.float64)
        v = RNG.normal(size=(n, d)).astype(np.float64)
        bias = RNG.normal(size=(n, n)).astype(np.float32)
        mask = np.triu(np.ones((n, n), dtype=bool), k=1)
        return q, k, v, bias, mask

    def _check_attention_arg(self, which, with_mask=True, with_bias=True):
        q_data, k_data, v_data, bias, mask = self._attention_inputs()
        fixed = {"q": q_data, "k": k_data, "v": v_data}

        def run(arr):
            parts = {
                name: Tensor(
                    (arr if name == which else fixed[name]).astype(np.float32),
                    requires_grad=(name == which),
                )
                for name in ("q", "k", "v")
            }
            out = fused_causal_attention(
                parts["q"], parts["k"], parts["v"],
                relation_bias=bias if with_bias else None,
                mask=mask if with_mask else None,
            )
            return (out * out).sum(), parts[which]

        x_data = fixed[which]
        out, tracked = run(x_data)
        out.backward()
        num = numerical_grad(lambda arr: float(run(arr)[0].data), x_data.copy())
        np.testing.assert_allclose(tracked.grad, num, atol=2e-2, rtol=2e-2)

    def test_fused_causal_attention_grad_q(self):
        self._check_attention_arg("q")

    def test_fused_causal_attention_grad_k(self):
        self._check_attention_arg("k")

    def test_fused_causal_attention_grad_v(self):
        self._check_attention_arg("v")

    def test_fused_causal_attention_grad_unmasked_unbiased(self):
        self._check_attention_arg("q", with_mask=False, with_bias=False)

    def test_fused_causal_attention_grad_bias(self):
        q_data, k_data, v_data, bias, mask = self._attention_inputs()
        q = Tensor(q_data.astype(np.float32))
        k = Tensor(k_data.astype(np.float32))
        v = Tensor(v_data.astype(np.float32))

        def run(arr):
            bt = Tensor(arr.astype(np.float32), requires_grad=True)
            out = fused_causal_attention(q, k, v, relation_bias=bt, mask=mask)
            return (out * out).sum(), bt

        b_data = bias.astype(np.float64)
        out, bt = run(b_data)
        out.backward()
        num = numerical_grad(lambda arr: float(run(arr)[0].data), b_data.copy())
        np.testing.assert_allclose(bt.grad, num, atol=2e-2, rtol=2e-2)
        # Blocked positions receive no score gradient.
        assert (bt.grad[mask] == 0).all()

    def test_fused_causal_attention_grad_under_arena(self):
        with grad_arena():
            self._check_attention_arg("q")

    def test_fused_layer_norm_grad(self):
        alpha = Tensor(RNG.normal(size=(6,)).astype(np.float32))
        beta = Tensor(RNG.normal(size=(6,)).astype(np.float32))
        check(lambda x: (layer_norm(x, alpha, beta) ** 2).sum(), (3, 6))

    def test_fused_layer_norm_param_grads(self):
        x = Tensor(RNG.normal(size=(4, 6)).astype(np.float32))
        for which in ("alpha", "beta"):
            def run(arr):
                params = {
                    "alpha": Tensor(np.ones(6, dtype=np.float32)),
                    "beta": Tensor(np.zeros(6, dtype=np.float32)),
                }
                params[which] = Tensor(arr.astype(np.float32), requires_grad=True)
                out = layer_norm(x, params["alpha"], params["beta"])
                return (out * out).sum(), params[which]

            p_data = RNG.normal(size=(6,)).astype(np.float64)
            out, tracked = run(p_data)
            out.backward()
            num = numerical_grad(lambda arr: float(run(arr)[0].data), p_data.copy())
            np.testing.assert_allclose(tracked.grad, num, atol=2e-2, rtol=2e-2)

    def test_residual_junction_layer_norm_grad(self):
        """The IAAB pre-LN residual junction: h = x + sub; n = LN(h)."""
        sub = Tensor(RNG.normal(size=(3, 6)).astype(np.float32))
        alpha = Tensor(np.ones(6, dtype=np.float32))
        beta = Tensor(np.zeros(6, dtype=np.float32))

        def fn(x):
            h = x + sub
            return (h * layer_norm(h, alpha, beta)).sum()

        check(fn, (3, 6))


class TestGraphMechanics:
    def test_grad_accumulates_over_reuse(self):
        x = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        y = x * x + x * 3.0
        y.backward()
        assert float(x.grad.item()) == pytest.approx(2 * 2 + 3)

    def test_no_grad_blocks_graph(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with nn.no_grad():
            y = x * 2
        assert not y.requires_grad

    def test_detach(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        y = x.detach() * 2
        assert not y.requires_grad

    def test_backward_requires_grad(self):
        x = Tensor(np.ones(3, dtype=np.float32))
        with pytest.raises(RuntimeError):
            x.sum().backward()

    def test_diamond_graph(self):
        # x feeds two paths that rejoin: grads must sum exactly once.
        x = Tensor(np.array([3.0], dtype=np.float32), requires_grad=True)
        a = x * 2
        b = x * 5
        (a + b).backward()
        assert float(x.grad.item()) == pytest.approx(7.0)

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1.0
        y.backward()
        assert float(x.grad.item()) == pytest.approx(1.0)
