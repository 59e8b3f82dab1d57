"""Attention primitives shared by STiSAN and the attention baselines.

``scaled_dot_product_attention`` is the vanilla mechanism of Vaswani et
al. with an optional boolean mask (True = blocked, filled with a large
negative value before softmax) and an optional additive bias term that
is point-wise added to the attention map *before* the softmax — the hook
that IAAB (Eq. 6) and TiSASRec's relation matrices plug into.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import fused
from .layers import Dropout, Linear
from .module import Module
from .tensor import Tensor

NEG_INF = -1e9


def causal_mask(n: int) -> np.ndarray:
    """Boolean (n, n) mask where True marks *future* positions to block."""
    return np.triu(np.ones((n, n), dtype=bool), k=1)


def scaled_dot_product_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    mask: Optional[np.ndarray] = None,
    bias: Optional[Tensor] = None,
    return_weights: bool = False,
) -> Tensor | Tuple[Tensor, np.ndarray]:
    """Softmax(QK^T / sqrt(d) + bias, masked) V, as one fused op.

    Parameters
    ----------
    q, k, v : Tensors of shape (..., n_q, d), (..., n_k, d), (..., n_k, d_v)
    mask : boolean array broadcastable to (..., n_q, n_k); True = block.
    bias : additive term broadcastable to the attention map (pre-softmax).
    return_weights : also return the post-softmax attention map (detached
        numpy array) for interpretability visualizations (Figs. 5 and 7).
    """
    return fused.fused_causal_attention(
        q, k, v, relation_bias=bias, mask=mask, return_weights=return_weights
    )


class SelfAttention(Module):
    """Single-head self-attention with learned Q/K/V projections.

    This is the paper's attention layer shape: ``W_{Q,K,V} in R^{d x d}``
    (Eq. 5).  An optional ``bias`` forwarded to the score map implements
    the interval-aware variant.
    """

    def __init__(self, dim: int, dropout: float = 0.0, *, rng: np.random.Generator):
        super().__init__()
        self.dim = dim
        self.w_q = Linear(dim, dim, bias=False, rng=rng)
        self.w_k = Linear(dim, dim, bias=False, rng=rng)
        self.w_v = Linear(dim, dim, bias=False, rng=rng)
        self.drop = Dropout(dropout, rng=rng)

    def forward(
        self,
        x: Tensor,
        mask: Optional[np.ndarray] = None,
        bias: Optional[Tensor] = None,
        return_weights: bool = False,
    ):
        q, k, v = self.w_q(x), self.w_k(x), self.w_v(x)
        result = scaled_dot_product_attention(
            q, k, v, mask=mask, bias=bias, return_weights=return_weights
        )
        if return_weights:
            out, weights = result
            return self.drop(out), weights
        return self.drop(result)


class MultiHeadAttention(Module):
    """Multi-head attention (used by the Bert4Rec baseline)."""

    def __init__(
        self,
        dim: int,
        num_heads: int,
        dropout: float = 0.0,
        *,
        rng: np.random.Generator,
    ):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.w_q = Linear(dim, dim, bias=False, rng=rng)
        self.w_k = Linear(dim, dim, bias=False, rng=rng)
        self.w_v = Linear(dim, dim, bias=False, rng=rng)
        self.w_o = Linear(dim, dim, bias=False, rng=rng)
        self.drop = Dropout(dropout, rng=rng)

    def _split(self, x: Tensor) -> Tensor:
        # (batch, n, d) -> (batch, heads, n, head_dim)
        b, n, _ = x.shape
        return x.reshape(b, n, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        single = x.ndim == 2
        if single:
            x = x.reshape(1, *x.shape)
        b, n, _ = x.shape
        q = self._split(self.w_q(x))
        k = self._split(self.w_k(x))
        v = self._split(self.w_v(x))
        head_mask = None
        if mask is not None:
            head_mask = np.broadcast_to(mask, (b, self.num_heads, n, n))
        out = scaled_dot_product_attention(q, k, v, mask=head_mask)
        out = out.transpose(0, 2, 1, 3).reshape(b, n, self.dim)
        out = self.drop(self.w_o(out))
        if single:
            out = out.reshape(n, self.dim)
        return out
