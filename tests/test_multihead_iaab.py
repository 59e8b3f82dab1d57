"""Tests for the multi-head IAAB extension (paper uses single head)."""

import numpy as np
import pytest

from repro.core import STiSAN, STiSANConfig
from repro.core.iaab import IntervalAwareAttentionBlock, IntervalAwareAttentionLayer
from repro.core.relation import scaled_relation_bias
from repro.data import partition
from repro.nn.tensor import Tensor


def _inputs(b=2, n=5, d=8, seed=0):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(b, n, d)).astype(np.float32), requires_grad=True)
    mask = np.broadcast_to(np.triu(np.ones((n, n), dtype=bool), k=1), (b, n, n))
    bias = np.abs(rng.normal(size=(b, n, n))).astype(np.float32)
    bias = scaled_relation_bias(bias, mask)
    return x, bias, mask


class TestMultiHeadLayer:
    def test_output_shape(self, rng):
        layer = IntervalAwareAttentionLayer(8, num_heads=2, rng=rng)
        x, bias, mask = _inputs()
        assert layer(x, bias, mask).shape == (2, 5, 8)

    def test_single_sequence_input(self, rng):
        layer = IntervalAwareAttentionLayer(8, num_heads=4, rng=rng)
        x = Tensor(rng.normal(size=(5, 8)).astype(np.float32))
        mask = np.triu(np.ones((5, 5), dtype=bool), k=1)
        bias = scaled_relation_bias(
            np.abs(rng.normal(size=(5, 5))).astype(np.float32), mask
        )
        assert layer(x, bias, mask).shape == (5, 8)

    def test_return_weights_averaged_over_heads(self, rng):
        layer = IntervalAwareAttentionLayer(8, num_heads=2, rng=rng)
        layer.eval()
        x, bias, mask = _inputs()
        _, weights = layer(x, bias, mask, return_weights=True)
        assert weights.shape == (2, 5, 5)
        np.testing.assert_allclose(weights.sum(-1), np.ones((2, 5)), atol=1e-5)

    def test_causality_preserved(self, rng):
        layer = IntervalAwareAttentionLayer(8, num_heads=2, rng=rng)
        layer.eval()
        x, bias, mask = _inputs(b=1)
        out1 = layer(x, bias, mask).data.copy()
        x2 = x.data.copy()
        x2[0, -1] += 3.0
        out2 = layer(Tensor(x2), bias, mask).data
        np.testing.assert_allclose(out1[0, :-1], out2[0, :-1], atol=1e-5)

    def test_gradients_flow(self, rng):
        layer = IntervalAwareAttentionLayer(8, num_heads=2, rng=rng)
        x, bias, mask = _inputs()
        layer(x, bias, mask).sum().backward()
        for _, p in layer.named_parameters():
            assert p.grad is not None

    def test_relation_bias_shared_across_heads(self, rng):
        """With zero Q/K weights every head's map equals softmax(bias):
        the bias must reach all heads."""
        layer = IntervalAwareAttentionLayer(8, num_heads=2, rng=rng)
        layer.eval()
        layer.w_q.weight.data = np.zeros_like(layer.w_q.weight.data)
        layer.w_k.weight.data = np.zeros_like(layer.w_k.weight.data)
        x, bias, mask = _inputs(b=1)
        _, w = layer(x, bias, mask, return_weights=True)
        from repro.nn import functional as F

        expected = F.softmax(Tensor(bias).masked_fill(mask, -1e9), axis=-1).data
        np.testing.assert_allclose(w, expected, atol=1e-5)

    def test_invalid_heads(self):
        with pytest.raises(ValueError):
            IntervalAwareAttentionLayer(8, num_heads=3, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            IntervalAwareAttentionLayer(8, num_heads=0, rng=np.random.default_rng(0))


class TestMultiHeadBlockAndModel:
    def test_block_shapes(self, rng):
        block = IntervalAwareAttentionBlock(8, 16, num_heads=2, rng=rng)
        x, bias, mask = _inputs()
        assert block(x, bias, mask).shape == (2, 5, 8)

    def test_stisan_with_heads_runs(self, micro_dataset):
        cfg = STiSANConfig.small(
            max_len=10, poi_dim=8, geo_dim=8, num_blocks=1, num_heads=2, dropout=0.0
        )
        model = STiSAN(micro_dataset.num_pois, micro_dataset.poi_coords, cfg,
                       rng=np.random.default_rng(0))
        train, _ = partition(micro_dataset, n=10)
        src = train[0].src_pois[None, :]
        times = train[0].src_times[None, :]
        tgt = train[0].tgt_pois[None, :]
        negs = np.full((1, 10, 2), 1, dtype=np.int64)
        pos, neg = model.forward_train(src, times, tgt, negs)
        assert np.isfinite(pos.data).all() and np.isfinite(neg.data).all()
        cands = np.arange(1, 6)[None, :]
        assert model.score_candidates(src, times, cands).shape == (1, 5)

    def test_head_count_same_parameters(self, micro_dataset):
        """Head splitting reshapes, it does not add parameters."""
        one = STiSAN(
            micro_dataset.num_pois, micro_dataset.poi_coords,
            STiSANConfig.small(max_len=10, poi_dim=8, geo_dim=8, num_blocks=1, num_heads=1),
            rng=np.random.default_rng(0),
        )
        two = STiSAN(
            micro_dataset.num_pois, micro_dataset.poi_coords,
            STiSANConfig.small(max_len=10, poi_dim=8, geo_dim=8, num_blocks=1, num_heads=2),
            rng=np.random.default_rng(0),
        )
        assert one.num_parameters() == two.num_parameters()

    def test_config_head_validation(self):
        with pytest.raises(ValueError):
            STiSANConfig.small(poi_dim=8, geo_dim=8, num_heads=3)
