"""Interval Aware Attention Block (IAAB) — Section III-E, Algorithm 2.

An IAAB alternates an *interval aware attention layer* and a two-layer
point-wise feed-forward network, each wrapped in a pre-norm residual
(Eq. 8):   x = x + Layer(LayerNorm(x)).

The attention layer is vanilla single-head self-attention (Eq. 5) whose
pre-softmax map receives the softmax-scaled spatial-temporal relation
matrix by point-wise addition (Eq. 6):

    A = Softmax(Q K^T / sqrt(d) + R) V

with the upper triangle of the map set to −inf to prevent information
leakage.  Setting ``use_relation=False`` recovers vanilla SA (ablation
*Remove IAAB*, Eq. 15); ``use_attention=False`` keeps only the relation
matrix (ablation *Remove SA*, Eq. 16).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..nn import functional as F
from ..nn import fused
from ..nn.attention import NEG_INF
from ..nn.layers import Dropout, LayerNorm, Linear, PositionwiseFeedForward
from ..nn.module import Module
from ..nn.tensor import Tensor


class IntervalAwareAttentionLayer(Module):
    """Single-head attention with an additive relation bias."""

    def __init__(
        self,
        dim: int,
        dropout: float = 0.0,
        use_relation: bool = True,
        use_attention: bool = True,
        *,
        rng: np.random.Generator,
    ):
        super().__init__()
        if not use_relation and not use_attention:
            raise ValueError("at least one of relation / attention must be active")
        self.dim = dim
        self.use_relation = use_relation
        self.use_attention = use_attention
        self.w_q = Linear(dim, dim, bias=False, rng=rng)
        self.w_k = Linear(dim, dim, bias=False, rng=rng)
        self.w_v = Linear(dim, dim, bias=False, rng=rng)
        self.drop = Dropout(dropout, rng=rng)

    def forward(
        self,
        x: Tensor,
        relation_bias: Optional[np.ndarray],
        attend_mask: np.ndarray,
        return_weights: bool = False,
        cut: int = 0,
    ) -> Tensor | Tuple[Tensor, np.ndarray]:
        """
        Parameters
        ----------
        x : (..., n, d) sequence representation.
        relation_bias : (..., n, n) softmax-scaled relation matrix
            (ignored when ``use_relation`` is False).
        attend_mask : (..., n, n) bool, True = blocked (future/padding).
        return_weights : additionally return the attention map for the
            interpretability figures.
        cut : ``x`` is columns ``cut:`` of a (b, cut + n, d) batch; dropout
            draws its mask at that full width and slices it.
        """
        v = self.w_v(x)
        if self.use_attention:
            q, k = self.w_q(x), self.w_k(x)
            bias = relation_bias if self.use_relation else None
            result = fused.fused_causal_attention(
                q, k, v, relation_bias=bias, mask=attend_mask,
                return_weights=return_weights,
            )
            if return_weights:
                out, weights_arr = result
                return self.drop(out, cut=cut), weights_arr
            return self.drop(result, cut=cut)
        # Ablation "Remove SA": A = Softmax(R) V — Eq. (16).
        if relation_bias is None:
            raise ValueError("relation_bias required when attention is disabled")
        scores = Tensor(np.broadcast_to(relation_bias, relation_bias.shape).copy())
        scores = scores.masked_fill(attend_mask, NEG_INF)
        weights = F.softmax(scores, axis=-1)
        out = self.drop(weights @ v, cut=cut)
        if return_weights:
            return out, weights.data.copy()
        return out


class IntervalAwareAttentionBlock(Module):
    """IAAB: pre-norm residual attention + pre-norm residual FFN."""

    def __init__(
        self,
        dim: int,
        hidden_dim: int,
        dropout: float = 0.0,
        use_relation: bool = True,
        use_attention: bool = True,
        *,
        rng: np.random.Generator,
    ):
        super().__init__()
        self.attn_norm = LayerNorm(dim)
        self.attn = IntervalAwareAttentionLayer(
            dim,
            dropout=dropout,
            use_relation=use_relation,
            use_attention=use_attention,
            rng=rng,
        )
        self.ffn_norm = LayerNorm(dim)
        self.ffn = PositionwiseFeedForward(dim, hidden_dim, dropout=dropout, rng=rng)

    def forward(
        self,
        x: Tensor,
        relation_bias: Optional[np.ndarray],
        attend_mask: np.ndarray,
        return_weights: bool = False,
        cut: int = 0,
    ) -> Tensor | Tuple[Tensor, np.ndarray]:
        """``cut``: ``x`` is columns ``cut:`` of a wider batch; both
        dropouts draw at the full width (see the attention layer)."""
        if return_weights:
            attn_out, weights = self.attn(
                self.attn_norm(x), relation_bias, attend_mask, return_weights=True, cut=cut
            )
        else:
            attn_out = self.attn(self.attn_norm(x), relation_bias, attend_mask, cut=cut)
        x = x + attn_out
        x = x + self.ffn(self.ffn_norm(x), cut=cut)
        if return_weights:
            return x, weights
        return x
