"""Tests for attention primitives, recurrent cells and convolutions."""

import numpy as np
import pytest

from repro import nn
from repro.nn.attention import causal_mask, scaled_dot_product_attention
from repro.nn.tensor import Tensor


class TestCausalMask:
    def test_shape_and_content(self):
        m = causal_mask(4)
        assert m.shape == (4, 4)
        assert not m[2, 2] and not m[2, 1]
        assert m[1, 2] and m[0, 3]

    def test_first_row_attends_only_itself(self):
        m = causal_mask(5)
        assert m[0, 1:].all() and not m[0, 0]


class TestScaledDotProductAttention:
    def test_uniform_when_keys_identical(self, rng):
        q = Tensor(rng.normal(size=(1, 3, 4)).astype(np.float32))
        k = Tensor(np.zeros((1, 3, 4), dtype=np.float32))
        v = Tensor(rng.normal(size=(1, 3, 4)).astype(np.float32))
        out, w = scaled_dot_product_attention(q, k, v, return_weights=True)
        np.testing.assert_allclose(w, np.full((1, 3, 3), 1 / 3), atol=1e-6)
        np.testing.assert_allclose(out.data, np.broadcast_to(v.data.mean(1, keepdims=True), out.shape), atol=1e-6)

    def test_causal_mask_blocks_future(self, rng):
        n, d = 5, 8
        q = Tensor(rng.normal(size=(n, d)).astype(np.float32))
        k = Tensor(rng.normal(size=(n, d)).astype(np.float32))
        v = Tensor(rng.normal(size=(n, d)).astype(np.float32))
        _, w = scaled_dot_product_attention(q, k, v, mask=causal_mask(n), return_weights=True)
        assert np.allclose(w[np.triu_indices(n, k=1)], 0.0)
        np.testing.assert_allclose(w.sum(axis=-1), np.ones(n), atol=1e-6)

    def test_bias_shifts_attention(self):
        n, d = 3, 4
        q = Tensor(np.zeros((n, d), dtype=np.float32))
        k = Tensor(np.zeros((n, d), dtype=np.float32))
        v = Tensor(np.eye(n, d).astype(np.float32))
        bias = np.zeros((n, n), dtype=np.float32)
        bias[:, 0] = 5.0
        _, w = scaled_dot_product_attention(q, k, v, bias=Tensor(bias), return_weights=True)
        assert (w[:, 0] > 0.9).all()

    def test_future_value_has_zero_gradient(self, rng):
        """No information leakage: d out_i / d v_j = 0 for j > i."""
        n, d = 4, 3
        q = Tensor(rng.normal(size=(n, d)).astype(np.float32))
        k = Tensor(rng.normal(size=(n, d)).astype(np.float32))
        v = Tensor(rng.normal(size=(n, d)).astype(np.float32), requires_grad=True)
        out = scaled_dot_product_attention(q, k, v, mask=causal_mask(n))
        out[0].sum().backward()  # only the first step's output
        np.testing.assert_allclose(v.grad[1:], np.zeros((n - 1, d)), atol=1e-7)


class TestSelfAttention:
    def test_shapes(self, rng):
        attn = nn.SelfAttention(8, rng=rng)
        x = Tensor(rng.normal(size=(2, 5, 8)).astype(np.float32))
        assert attn(x).shape == (2, 5, 8)

    def test_return_weights(self, rng):
        attn = nn.SelfAttention(8, rng=rng)
        x = Tensor(rng.normal(size=(5, 8)).astype(np.float32))
        out, w = attn(x, mask=causal_mask(5), return_weights=True)
        assert w.shape == (5, 5)
        assert out.shape == (5, 8)


class TestMultiHeadAttention:
    def test_shapes(self, rng):
        mha = nn.MultiHeadAttention(8, 2, rng=rng)
        x = Tensor(rng.normal(size=(2, 6, 8)).astype(np.float32))
        assert mha(x).shape == (2, 6, 8)

    def test_2d_input(self, rng):
        mha = nn.MultiHeadAttention(8, 4, rng=rng)
        x = Tensor(rng.normal(size=(6, 8)).astype(np.float32))
        assert mha(x).shape == (6, 8)

    def test_indivisible_heads_raises(self):
        with pytest.raises(ValueError):
            nn.MultiHeadAttention(7, 2, rng=np.random.default_rng(0))

    def test_gradients_flow(self, rng):
        mha = nn.MultiHeadAttention(8, 2, rng=rng)
        x = Tensor(rng.normal(size=(1, 4, 8)).astype(np.float32))
        mha(x).sum().backward()
        for p in mha.parameters():
            assert p.grad is not None


class TestGRU:
    def test_cell_shapes(self, rng):
        cell = nn.GRUCell(4, 6, rng=rng)
        h = cell(Tensor(rng.normal(size=(3, 4)).astype(np.float32)),
                 Tensor(np.zeros((3, 6), dtype=np.float32)))
        assert h.shape == (3, 6)

    def test_layer_shapes(self, rng):
        gru = nn.GRU(4, 6, rng=rng)
        out = gru(Tensor(rng.normal(size=(2, 7, 4)).astype(np.float32)))
        assert out.shape == (2, 7, 6)

    def test_state_bounded(self, rng):
        gru = nn.GRU(4, 6, rng=rng)
        x = Tensor((rng.normal(size=(1, 50, 4)) * 10).astype(np.float32))
        out = gru(x).data
        assert np.abs(out).max() <= 1.0 + 1e-5  # convex mix of tanh values

    def test_can_learn_memory_task(self, rng):
        """GRU learns to output the first input's sign at the last step."""
        gru = nn.GRU(1, 8, rng=rng)
        head = nn.Linear(8, 1, rng=rng)
        opt = nn.Adam([*gru.parameters(), *head.parameters()], lr=0.02)
        data_rng = np.random.default_rng(3)
        losses = []
        for _ in range(120):
            signs = data_rng.choice([-1.0, 1.0], size=(8, 1)).astype(np.float32)
            x = np.concatenate([signs[:, None, :], np.zeros((8, 4, 1), dtype=np.float32)], axis=1)
            out = head(gru(Tensor(x))[:, -1, :])
            loss = ((out - Tensor(signs)) ** 2).mean()
            opt.zero_grad()
            loss.backward()
            opt.step()
            losses.append(float(loss.data))
        assert np.mean(losses[-10:]) < 0.5 * np.mean(losses[:10])


class TestLSTMAndSTGN:
    def test_lstm_cell_shapes(self, rng):
        cell = nn.LSTMCell(4, 6, rng=rng)
        h0 = Tensor(np.zeros((3, 6), dtype=np.float32))
        h, c = cell(Tensor(rng.normal(size=(3, 4)).astype(np.float32)), (h0, h0))
        assert h.shape == (3, 6) and c.shape == (3, 6)

    def test_stgn_cell_shapes(self, rng):
        cell = nn.STGNCell(4, 6, rng=rng)
        z = Tensor(np.zeros((3, 6), dtype=np.float32))
        dt = Tensor(np.ones((3, 1), dtype=np.float32))
        h, c, ch = cell(Tensor(rng.normal(size=(3, 4)).astype(np.float32)), (z, z, z), dt, dt)
        assert h.shape == (3, 6)

    def test_stgn_intervals_change_output(self, rng):
        cell = nn.STGNCell(4, 6, rng=rng)
        z = Tensor(np.zeros((2, 6), dtype=np.float32))
        x = Tensor(rng.normal(size=(2, 4)).astype(np.float32))
        small = Tensor(np.zeros((2, 1), dtype=np.float32))
        large = Tensor(np.full((2, 1), 5.0, dtype=np.float32))
        h1, _, _ = cell(x, (z, z, z), small, small)
        h2, _, _ = cell(x, (z, z, z), large, large)
        assert not np.allclose(h1.data, h2.data)


class TestConv:
    def test_unfold_shapes(self, rng):
        x = Tensor(rng.normal(size=(2, 6, 4)).astype(np.float32))
        u = nn.unfold_sequence(x, 3)
        assert u.shape == (2, 4, 12)

    def test_unfold_content(self):
        x = Tensor(np.arange(12, dtype=np.float32).reshape(1, 4, 3))
        u = nn.unfold_sequence(x, 2)
        np.testing.assert_array_equal(u.data[0, 0], np.arange(6))
        np.testing.assert_array_equal(u.data[0, 2], np.arange(6, 12))

    def test_unfold_too_tall_raises(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 2)).astype(np.float32))
        with pytest.raises(ValueError):
            nn.unfold_sequence(x, 5)

    def test_horizontal_conv_shape(self, rng):
        conv = nn.HorizontalConv(4, [2, 3], num_filters=5, rng=rng)
        x = Tensor(rng.normal(size=(2, 6, 4)).astype(np.float32))
        out = conv(x)
        assert out.shape == (2, 10)
        assert conv.out_dim == 10

    def test_vertical_conv_shape(self, rng):
        conv = nn.VerticalConv(6, num_filters=3, rng=rng)
        x = Tensor(rng.normal(size=(2, 6, 4)).astype(np.float32))
        assert conv(x).shape == (2, 12)

    def test_vertical_conv_wrong_length(self, rng):
        conv = nn.VerticalConv(6, num_filters=3, rng=rng)
        with pytest.raises(ValueError):
            conv(Tensor(np.zeros((1, 5, 4), dtype=np.float32)))
