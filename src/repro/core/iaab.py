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
from .packing import WHOLE, Packing


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
        packing: Optional[Packing] = None,
    ) -> Tensor | Tuple[Tensor, np.ndarray]:
        """
        Parameters
        ----------
        x : (..., n, d) sequence representation.
        relation_bias : (..., n, n) softmax-scaled relation matrix
            (ignored when ``use_relation`` is False).
        attend_mask : (..., n, n) bool, True = blocked (future/padding).
        return_weights : additionally return the attention map for the
            interpretability figures (a batch run whole only).
        packing : the layout of ``x`` when it holds the tokens of a
            :class:`~repro.core.packing.Packing`; ``relation_bias`` and
            ``attend_mask`` then hold one array per cut group, and the
            attention runs once per group.
        """
        if packing is None:
            packing, relation_bias, attend_mask = WHOLE, [relation_bias], [attend_mask]
        v = packing.split(self.w_v(x))
        if self.use_attention:
            q, k = packing.split(self.w_q(x)), packing.split(self.w_k(x))
            bias = relation_bias if self.use_relation else [None] * len(attend_mask)
            results = [
                fused.fused_causal_attention(
                    q[i], k[i], v[i], relation_bias=bias[i], mask=attend_mask[i],
                    return_weights=return_weights,
                )
                for i in range(len(attend_mask))
            ]
        else:
            # Ablation "Remove SA": A = Softmax(R) V — Eq. (16).
            if relation_bias[0] is None:
                raise ValueError("relation_bias required when attention is disabled")
            results = [
                _relation_attention(relation_bias[i], attend_mask[i], v[i], return_weights)
                for i in range(len(attend_mask))
            ]
        if return_weights:
            (out, weights), = results
            return self.drop(out, packing), weights
        return self.drop(packing.join(results), packing)


def _relation_attention(
    relation_bias: np.ndarray, attend_mask: np.ndarray, v: Tensor, return_weights: bool
) -> Tensor | Tuple[Tensor, np.ndarray]:
    """``Softmax(R) V`` with the blocked entries masked."""
    scores = Tensor(relation_bias.copy()).masked_fill(attend_mask, NEG_INF)
    weights = F.softmax(scores, axis=-1)
    out = weights @ v
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
        packing: Optional[Packing] = None,
    ) -> Tensor | Tuple[Tensor, np.ndarray]:
        """``packing``: the layout of ``x`` (see the attention layer);
        both dropouts draw at the batch shape and pack their masks."""
        if return_weights:
            attn_out, weights = self.attn(
                self.attn_norm(x), relation_bias, attend_mask, return_weights=True,
                packing=packing,
            )
        else:
            attn_out = self.attn(self.attn_norm(x), relation_bias, attend_mask, packing=packing)
        x = x + attn_out
        x = x + self.ffn(self.ffn_norm(x), packing)
        if return_weights:
            return x, weights
        return x
