"""Tests for the relation matrix, IAAB and TAAD (Sections III-D/E/F)."""

import numpy as np
import pytest

from repro.core.iaab import IntervalAwareAttentionBlock, IntervalAwareAttentionLayer
from repro.core.relation import (
    RelationConfig, build_relation_matrix, causal_attend_mask, scaled_relation_bias,
)
from repro.core.taad import TargetAwareAttentionDecoder, preference_scores, step_causal_mask
from repro.data.types import SECONDS_PER_DAY
from repro.nn.tensor import Tensor


def _sample_sequence(n=6, seed=0):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0, 20 * SECONDS_PER_DAY, size=n))
    coords = np.stack(
        [rng.uniform(43.0, 44.0, size=n), rng.uniform(125.0, 126.0, size=n)], axis=1
    )
    return times, coords


class TestRelationMatrix:
    def test_lower_triangular(self):
        times, coords = _sample_sequence()
        r = build_relation_matrix(times, coords)
        assert np.allclose(r[np.triu_indices(6, k=1)], 0.0)

    def test_inverse_relation_to_intervals(self):
        """Closer in space-time => larger r (r = r_max − r_hat)."""
        times = np.array([0.0, 1000.0, 40 * SECONDS_PER_DAY])
        coords = np.array([[43.0, 125.0], [43.001, 125.001], [44.0, 126.0]])
        r = build_relation_matrix(times, coords, RelationConfig(k_t_days=50, k_d_km=200))
        # Pair (1,0) is close in time and space; (2,0) is far in both.
        assert r[1, 0] > r[2, 0]

    def test_clipping_thresholds(self):
        times = np.array([0.0, 100 * SECONDS_PER_DAY])
        coords = np.array([[43.0, 125.0], [49.0, 130.0]])  # far apart
        cfg = RelationConfig(k_t_days=5.0, k_d_km=10.0)
        r = build_relation_matrix(times, coords, cfg)
        # r_hat = [0, clipped max] -> r_max = k_t + k_d; r[1,0] = 0, diag = r_max.
        assert r[1, 0] == pytest.approx(0.0, abs=1e-5)
        assert r[0, 0] == pytest.approx(15.0, abs=1e-4)

    def test_zero_thresholds_disable(self):
        """k_t = k_d = 0 makes R constant zero (the Fig. 9 degenerate case)."""
        times, coords = _sample_sequence()
        r = build_relation_matrix(times, coords, RelationConfig(0.0, 0.0))
        np.testing.assert_allclose(r, 0.0)

    def test_batched(self):
        t1, c1 = _sample_sequence(seed=1)
        t2, c2 = _sample_sequence(seed=2)
        times = np.stack([t1, t2])
        coords = np.stack([c1, c2])
        r = build_relation_matrix(times, coords)
        assert r.shape == (2, 6, 6)
        np.testing.assert_allclose(
            r[0], build_relation_matrix(t1, c1), atol=1e-5
        )

    def test_padding_rows_zeroed(self):
        times, coords = _sample_sequence()
        pad = np.array([True, True, False, False, False, False])
        r = build_relation_matrix(times, coords, pad_mask=pad)
        np.testing.assert_allclose(r[:2, :], 0.0)
        np.testing.assert_allclose(r[:, :2], 0.0)
        assert np.abs(r[2:, 2:]).sum() > 0

    def test_diagonal_maximal_among_visible(self):
        """Self-relation has zero interval, hence the maximal value."""
        times, coords = _sample_sequence()
        r = build_relation_matrix(times, coords)
        for i in range(1, 6):
            assert r[i, i] == pytest.approx(r.max(), abs=1e-5)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            build_relation_matrix(np.zeros(3), np.zeros((4, 2)))

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            RelationConfig(k_t_days=-1)


class TestScaledRelationBias:
    def test_rows_sum_to_one_over_visible(self):
        times, coords = _sample_sequence()
        r = build_relation_matrix(times, coords)
        mask = np.triu(np.ones((6, 6), dtype=bool), k=1)
        bias = scaled_relation_bias(r, mask)
        np.testing.assert_allclose(bias.sum(axis=-1), np.ones(6), atol=1e-6)
        assert np.allclose(bias[mask], 0.0)

    def test_zero_relation_gives_uniform_rows(self):
        r = np.zeros((4, 4), dtype=np.float32)
        mask = np.triu(np.ones((4, 4), dtype=bool), k=1)
        bias = scaled_relation_bias(r, mask)
        for i in range(4):
            np.testing.assert_allclose(bias[i, : i + 1], 1.0 / (i + 1), atol=1e-6)

    def test_fully_blocked_row_zero(self):
        r = np.zeros((3, 3), dtype=np.float32)
        mask = np.ones((3, 3), dtype=bool)
        bias = scaled_relation_bias(r, mask)
        np.testing.assert_allclose(bias, 0.0)


class TestIAAB:
    def _inputs(self, b=2, n=5, d=8, seed=0):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(b, n, d)).astype(np.float32), requires_grad=True)
        mask = np.broadcast_to(np.triu(np.ones((n, n), dtype=bool), k=1), (b, n, n))
        bias = np.abs(rng.normal(size=(b, n, n))).astype(np.float32)
        bias = scaled_relation_bias(bias, mask)
        return x, bias, mask, rng

    def test_block_shape(self, rng):
        block = IntervalAwareAttentionBlock(8, 16, rng=rng)
        x, bias, mask, _ = self._inputs()
        out = block(x, bias, mask)
        assert out.shape == (2, 5, 8)

    def test_single_sequence_input(self):
        """A 2-D (n, d) sequence runs without a batch axis and matches
        its row of the batched call."""
        block = IntervalAwareAttentionBlock(8, 16, rng=np.random.default_rng(0))
        block.eval()
        x, bias, mask, _ = self._inputs()
        out = block(Tensor(x.data[1]), bias[1], mask[1])
        assert out.shape == (5, 8)
        np.testing.assert_allclose(out.data, block(x, bias, mask).data[1], atol=1e-6)
        _, w = block.attn(Tensor(x.data[1]), bias[1], mask[1], return_weights=True)
        assert w.shape == (5, 5)

    def test_causality_no_leakage(self):
        """Changing a future input must not change past outputs."""
        rng = np.random.default_rng(0)
        block = IntervalAwareAttentionBlock(8, 16, rng=rng)
        block.eval()
        x, bias, mask, _ = self._inputs(b=1)
        out1 = block(x, bias, mask).data.copy()
        x2 = x.data.copy()
        x2[0, -1] += 10.0  # perturb the last step
        out2 = block(Tensor(x2), bias, mask).data
        np.testing.assert_allclose(out1[0, :-1], out2[0, :-1], atol=1e-5)
        assert not np.allclose(out1[0, -1], out2[0, -1])

    def test_relation_bias_changes_attention(self):
        rng = np.random.default_rng(0)
        layer = IntervalAwareAttentionLayer(8, rng=rng)
        layer.eval()
        x, bias, mask, _ = self._inputs(b=1)
        _, w_with = layer(x, bias, mask, return_weights=True)
        _, w_without = layer(x, None, mask, return_weights=True)
        assert not np.allclose(w_with, w_without)

    def test_remove_sa_variant_uses_relation_only(self):
        """Eq. (16): attention weights equal softmax of masked R."""
        rng = np.random.default_rng(0)
        layer = IntervalAwareAttentionLayer(8, use_attention=False, rng=rng)
        layer.eval()
        x, bias, mask, _ = self._inputs(b=1)
        _, w = layer(x, bias, mask, return_weights=True)
        # The bias rows are already softmax-normalized; a second masked
        # softmax of them is deterministic in the bias alone.
        from repro.nn import functional as F

        expected = F.softmax(Tensor(bias).masked_fill(mask, -1e9), axis=-1).data
        np.testing.assert_allclose(w, expected, atol=1e-6)

    @pytest.mark.parametrize("relation, disabled", [
        (RelationConfig(0.0, 0.0), True),
        (RelationConfig(), False),
    ])
    def test_zero_thresholds_disable_the_block_fig9(self, relation, disabled):
        """Fig. 9: with k_t = k_d = 0 a block with the relation equals the
        same block without it; with the default thresholds it differs."""
        b, n, d = 3, 7, 8
        rng = np.random.default_rng(5)
        times = np.sort(rng.uniform(0, 30 * SECONDS_PER_DAY, size=(b, n)), axis=-1)
        coords = np.stack(
            [rng.uniform(43.0, 44.0, size=(b, n)), rng.uniform(125.0, 126.0, size=(b, n))],
            axis=-1,
        )
        pad = np.zeros((b, n), dtype=bool)
        pad[1, :3] = True
        mask = causal_attend_mask(pad)
        bias = scaled_relation_bias(build_relation_matrix(times, coords, relation, pad), mask)
        x = Tensor(rng.normal(size=(b, n, d)).astype(np.float32))
        outputs = []
        for use_relation in (True, False):
            block = IntervalAwareAttentionBlock(
                d, 16, use_relation=use_relation, rng=np.random.default_rng(0)
            )
            block.eval()
            outputs.append(block(x, bias, mask).data[~pad])
        with_relation, without = outputs
        if disabled:
            np.testing.assert_allclose(with_relation, without, atol=1e-6, rtol=0)
        else:
            assert np.abs(with_relation - without).max() > 1e-4

    def test_cannot_disable_both(self):
        with pytest.raises(ValueError):
            IntervalAwareAttentionLayer(
                8, use_relation=False, use_attention=False,
                rng=np.random.default_rng(0),
            )

    def test_weights_rows_normalized(self):
        rng = np.random.default_rng(0)
        layer = IntervalAwareAttentionLayer(8, rng=rng)
        layer.eval()
        x, bias, mask, _ = self._inputs(b=1)
        _, w = layer(x, bias, mask, return_weights=True)
        assert w.shape == (1, 5, 5)
        np.testing.assert_allclose(w.sum(axis=-1), np.ones((1, 5)), atol=1e-5)

    def test_gradients_reach_all_parameters(self):
        rng = np.random.default_rng(0)
        block = IntervalAwareAttentionBlock(8, 16, rng=rng)
        x, bias, mask, _ = self._inputs()
        block(x, bias, mask).sum().backward()
        for name, p in block.named_parameters():
            assert p.grad is not None, name


class TestTAAD:
    def test_step_causal_mask(self):
        m = step_causal_mask(4, 4)
        assert m.shape == (4, 1, 4)
        assert m[0, 0, 1] and not m[0, 0, 0]
        assert not m[3, 0, :].any()

    def test_training_shape(self, rng):
        dec = TargetAwareAttentionDecoder(8)
        cand = Tensor(rng.normal(size=(2, 5, 3, 8)).astype(np.float32))
        enc = Tensor(rng.normal(size=(2, 5, 8)).astype(np.float32))
        mask = step_causal_mask(5, 5)[None, ...]
        out = dec(cand, enc, attend_mask=mask)
        assert out.shape == (2, 5, 3, 8)

    def test_recommendation_shape(self, rng):
        dec = TargetAwareAttentionDecoder(8)
        cand = Tensor(rng.normal(size=(2, 7, 8)).astype(np.float32))
        enc = Tensor(rng.normal(size=(2, 5, 8)).astype(np.float32))
        out = dec(cand, enc)
        assert out.shape == (2, 7, 8)

    def test_no_leakage_across_steps(self, rng):
        """The candidate at step 0 must ignore encoder steps > 0."""
        dec = TargetAwareAttentionDecoder(8)
        cand = Tensor(rng.normal(size=(1, 3, 2, 8)).astype(np.float32))
        enc1 = rng.normal(size=(1, 3, 8)).astype(np.float32)
        enc2 = enc1.copy()
        enc2[0, 2] += 5.0
        mask = step_causal_mask(3, 3)[None, ...]
        out1 = dec(cand, Tensor(enc1), attend_mask=mask).data
        out2 = dec(cand, Tensor(enc2), attend_mask=mask).data
        np.testing.assert_allclose(out1[0, 0], out2[0, 0], atol=1e-6)
        np.testing.assert_allclose(out1[0, 1], out2[0, 1], atol=1e-6)
        assert not np.allclose(out1[0, 2], out2[0, 2])

    def test_preference_scores_inner_product(self, rng):
        s = Tensor(rng.normal(size=(2, 4, 8)).astype(np.float32))
        c = Tensor(rng.normal(size=(2, 4, 8)).astype(np.float32))
        scores = preference_scores(s, c)
        assert scores.shape == (2, 4)
        np.testing.assert_allclose(
            scores.data, (s.data * c.data).sum(-1), atol=1e-5
        )

    def test_decoder_has_no_parameters(self):
        """TAAD is parameter-free (attention reuses candidate/encoder
        representations directly)."""
        dec = TargetAwareAttentionDecoder(8)
        assert dec.num_parameters() == 0
