"""Tests for the added activations."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor


def _numerical_grad(fn, x, eps=1e-3):
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    g = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        g[i] = (hi - lo) / (2 * eps)
    return grad


class TestActivations:
    @pytest.mark.parametrize(
        "fn",
        [F.gelu, lambda t: F.leaky_relu(t, 0.1), F.elu],
        ids=["gelu", "leaky_relu", "elu"],
    )
    def test_gradcheck(self, fn):
        rng = np.random.default_rng(0)
        x_data = rng.uniform(0.2, 2.0, size=6).astype(np.float64)  # away from kinks
        x = Tensor(x_data.astype(np.float32), requires_grad=True)
        fn(x).sum().backward()
        num = _numerical_grad(
            lambda arr: float(fn(Tensor(arr.astype(np.float32))).sum().data), x_data.copy()
        )
        np.testing.assert_allclose(x.grad, num, atol=2e-2, rtol=2e-2)

    def test_gelu_asymptotes(self):
        x = Tensor(np.array([-10.0, 10.0], dtype=np.float32))
        out = F.gelu(x).data
        assert out[0] == pytest.approx(0.0, abs=1e-3)
        assert out[1] == pytest.approx(10.0, abs=1e-3)

    def test_leaky_relu_negative_slope(self):
        x = Tensor(np.array([-2.0], dtype=np.float32))
        assert F.leaky_relu(x, 0.1).data[0] == pytest.approx(-0.2)

    def test_elu_continuity_at_zero(self):
        eps = 1e-4
        lo = F.elu(Tensor(np.array([-eps], dtype=np.float32))).data[0]
        hi = F.elu(Tensor(np.array([eps], dtype=np.float32))).data[0]
        assert abs(hi - lo) < 1e-3

    def test_elu_bounded_below(self):
        x = Tensor(np.array([-50.0], dtype=np.float32))
        assert F.elu(x, alpha=1.0).data[0] == pytest.approx(-1.0, abs=1e-4)
