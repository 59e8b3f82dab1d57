"""Tests for layers, the module system, optimizers and serialization."""

import numpy as np
import pytest

from repro import nn
from repro.nn.functional import embedding_lookup
from repro.nn.rowsparse import dense_grad
from repro.nn.tensor import Tensor


class TestLinear:
    def test_shapes(self, rng):
        layer = nn.Linear(4, 7, rng=rng)
        out = layer(Tensor(rng.normal(size=(3, 4)).astype(np.float32)))
        assert out.shape == (3, 7)

    def test_batched_input(self, rng):
        layer = nn.Linear(4, 7, rng=rng)
        out = layer(Tensor(rng.normal(size=(2, 5, 4)).astype(np.float32)))
        assert out.shape == (2, 5, 7)

    def test_no_bias(self, rng):
        layer = nn.Linear(4, 7, bias=False, rng=rng)
        assert layer.bias is None
        zero = layer(Tensor(np.zeros((1, 4), dtype=np.float32)))
        np.testing.assert_allclose(zero.data, 0.0)

    def test_gradient_flows_to_params(self, rng):
        layer = nn.Linear(4, 2, rng=rng)
        out = layer(Tensor(rng.normal(size=(5, 4)).astype(np.float32)))
        out.sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None
        np.testing.assert_allclose(layer.bias.grad, np.full(2, 5.0), atol=1e-5)


class TestEmbedding:
    def test_lookup_shape(self, rng):
        emb = nn.Embedding(10, 6, rng=rng)
        out = emb(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 6)

    def test_padding_row_zero_and_frozen(self, rng):
        emb = nn.Embedding(10, 6, padding_idx=0, rng=rng)
        out = emb(np.array([0, 1]))
        np.testing.assert_allclose(out.data[0], np.zeros(6))
        out.sum().backward()
        grad = dense_grad(emb.weight.grad)
        np.testing.assert_allclose(grad[0], np.zeros(6))
        assert np.abs(grad[1]).sum() > 0

    def test_out_of_range_raises(self, rng):
        emb = nn.Embedding(10, 6, rng=rng)
        with pytest.raises(IndexError):
            emb(np.array([10]))
        with pytest.raises(IndexError):
            emb(np.array([-1]))

    def test_lookup_never_mutates_weight(self, rng):
        weight = nn.Parameter(rng.normal(size=(6, 4)).astype(np.float32))
        before = weight.data.copy()
        idx = np.array([[0, 3, 0], [5, 3, 1]])
        out = embedding_lookup(weight, idx, padding_idx=0)
        np.testing.assert_array_equal(out.data[idx == 0], 0.0)
        np.testing.assert_array_equal(out.data[idx != 0], before[idx[idx != 0]])
        out.data[...] = 7.0  # the output is its own array, not a view
        (out * 2.0).sum().backward()
        np.testing.assert_array_equal(weight.data, before)
        assert (dense_grad(weight.grad)[0] == 0.0).all()

    def test_repeated_index_accumulates_grad(self, rng):
        emb = nn.Embedding(5, 3, rng=rng)
        out = emb(np.array([2, 2, 2]))
        out.sum().backward()
        np.testing.assert_allclose(dense_grad(emb.weight.grad)[2], np.full(3, 3.0), atol=1e-6)


class TestLayerNormDropout:
    def test_layernorm_normalizes(self, rng):
        ln = nn.LayerNorm(8)
        x = Tensor((rng.normal(size=(4, 8)) * 5 + 2).astype(np.float32))
        out = ln(x).data
        np.testing.assert_allclose(out.mean(-1), np.zeros(4), atol=1e-4)

    def test_layernorm_learned_affine(self, rng):
        ln = nn.LayerNorm(4)
        ln.alpha.data = np.full(4, 2.0, dtype=np.float32)
        ln.beta.data = np.full(4, 1.0, dtype=np.float32)
        x = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
        out = ln(x).data
        np.testing.assert_allclose(out.mean(-1), np.ones(3), atol=1e-3)

    def test_dropout_eval_identity(self, rng):
        drop = nn.Dropout(0.5, rng=rng)
        drop.train(False)
        x = Tensor(rng.normal(size=(100,)).astype(np.float32))
        np.testing.assert_array_equal(drop(x).data, x.data)

    def test_dropout_train_scales(self):
        drop = nn.Dropout(0.5, rng=np.random.default_rng(0))
        x = Tensor(np.ones(10000, dtype=np.float32), requires_grad=True)
        out = drop(x)
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, 2.0)
        # Expected value preserved.
        assert abs(out.data.mean() - 1.0) < 0.05

    def test_dropout_rate_validation(self):
        with pytest.raises(ValueError):
            nn.Dropout(1.0, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            nn.Dropout(-0.1, rng=np.random.default_rng(0))

    def test_ffn_shape_and_hidden_floor(self, rng):
        ffn = nn.PositionwiseFeedForward(8, 4, rng=rng)  # hidden < dim gets raised
        x = Tensor(rng.normal(size=(2, 3, 8)).astype(np.float32))
        assert ffn(x).shape == (2, 3, 8)


class TestModuleSystem:
    def test_parameter_registration(self, rng):
        class Net(nn.Module):
            def __init__(self):
                super().__init__()
                self.fc1 = nn.Linear(3, 4, rng=rng)
                self.fc2 = nn.Linear(4, 2, rng=rng)

        net = Net()
        names = [n for n, _ in net.named_parameters()]
        assert "fc1.weight" in names and "fc2.bias" in names
        assert net.num_parameters() == 3 * 4 + 4 + 4 * 2 + 2

    def test_train_eval_propagates(self, rng):
        seq = nn.Sequential(nn.Linear(2, 2, rng=rng), nn.Dropout(0.5, rng=np.random.default_rng(0)))
        seq.eval()
        assert not seq[1].training
        seq.train()
        assert seq[1].training

    def test_module_list(self, rng):
        ml = nn.ModuleList([nn.Linear(2, 2, rng=rng) for _ in range(3)])
        assert len(ml) == 3
        assert len(list(ml.parameters())) == 6

    def test_state_dict_roundtrip(self, rng):
        a = nn.Linear(3, 3, rng=rng)
        b = nn.Linear(3, 3, rng=np.random.default_rng(99))
        assert not np.allclose(a.weight.data, b.weight.data)
        b.load_state_dict(a.state_dict())
        np.testing.assert_array_equal(a.weight.data, b.weight.data)

    def test_state_dict_strict_mismatch(self, rng):
        a = nn.Linear(3, 3, rng=rng)
        with pytest.raises(KeyError):
            a.load_state_dict({"weight": a.weight.data})  # missing bias

    def test_state_dict_shape_mismatch(self, rng):
        a = nn.Linear(3, 3, rng=rng)
        bad = a.state_dict()
        bad["weight"] = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            a.load_state_dict(bad)

    def test_zero_grad(self, rng):
        a = nn.Linear(3, 1, rng=rng)
        a(Tensor(np.ones((2, 3), dtype=np.float32))).sum().backward()
        assert a.weight.grad is not None
        a.zero_grad()
        assert a.weight.grad is None


class TestOptimizers:
    def _quadratic_min(self, optimizer_factory, steps=200, tol=1e-2):
        target = np.array([1.0, -2.0, 3.0], dtype=np.float32)
        p = nn.Parameter(np.zeros(3, dtype=np.float32))
        opt = optimizer_factory([p])
        for _ in range(steps):
            loss = ((p - Tensor(target)) ** 2).sum()
            opt.zero_grad()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(p.data, target, atol=tol)

    def test_sgd_converges(self):
        self._quadratic_min(lambda ps: nn.SGD(ps, lr=0.1))

    def test_sgd_momentum_converges(self):
        self._quadratic_min(lambda ps: nn.SGD(ps, lr=0.05, momentum=0.9))

    def test_adam_converges(self):
        self._quadratic_min(lambda ps: nn.Adam(ps, lr=0.1))

    def test_grad_clipping(self):
        p = nn.Parameter(np.zeros(4, dtype=np.float32))
        opt = nn.SGD([p], lr=1.0)
        p.grad = np.full(4, 10.0, dtype=np.float32)
        norm = opt.clip_grad_norm(1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, abs=1e-5)

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            nn.SGD([nn.Parameter(np.zeros(1))], lr=0.0)

    def test_empty_params(self):
        with pytest.raises(ValueError):
            nn.Adam([], lr=0.1)

    def test_adam_skips_none_grad(self):
        p1 = nn.Parameter(np.ones(2, dtype=np.float32))
        p2 = nn.Parameter(np.ones(2, dtype=np.float32))
        opt = nn.Adam([p1, p2], lr=0.1)
        p1.grad = np.ones(2, dtype=np.float32)
        opt.step()
        np.testing.assert_array_equal(p2.data, np.ones(2))
        assert not np.allclose(p1.data, np.ones(2))


class TestSerialization:
    def test_checkpoint_roundtrip(self, tmp_path, rng):
        model = nn.Sequential(nn.Linear(4, 8, rng=rng), nn.ReLU(), nn.Linear(8, 2, rng=rng))
        path = tmp_path / "ckpt.npz"
        nn.save_checkpoint(model, path, meta={"epoch": 3})
        clone = nn.Sequential(
            nn.Linear(4, 8, rng=np.random.default_rng(5)),
            nn.ReLU(),
            nn.Linear(8, 2, rng=np.random.default_rng(6)),
        )
        meta = nn.load_checkpoint(clone, path)
        assert meta == {"epoch": 3}
        x = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
        np.testing.assert_array_equal(model(x).data, clone(x).data)

    def test_checkpoint_without_suffix(self, tmp_path, rng):
        model = nn.Linear(2, 2, rng=rng)
        nn.save_checkpoint(model, tmp_path / "m")  # savez appends .npz
        nn.load_checkpoint(model, tmp_path / "m")
