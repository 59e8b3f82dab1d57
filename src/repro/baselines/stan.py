"""STAN — Spatio-Temporal Attention Network (Luo et al., WWW 2021).

A bi-layer attention architecture over the check-in sequence:

1. a *self-attention aggregation* layer whose logits are modulated by
   explicit pairwise spatio-temporal intervals, and
2. an *attention matching* layer where each candidate attends the
   aggregated sequence to produce its score.

Faithfulness note: the original embeds every pairwise interval by
linear interpolation between learned min/max interval embeddings —
a (b, n, n, d) tensor that pure numpy cannot afford.  We keep the same
information path with a per-layer learned linear form of the normalized
intervals, bias_ij = a·Δt̃_ij + b·Δd̃_ij + c (Δ̃ min-max normalized per
sequence), which is the interpolation collapsed onto the attention
logits.  Negatives use GeoSAN-style spatial sampling, standing in for
STAN's balanced sampler.  See DESIGN.md §2.
"""

from __future__ import annotations

import numpy as np

from ..core.relation import causal_attend_mask
from ..data.types import PAD_POI, SECONDS_PER_DAY
from ..geo.haversine import haversine
from ..nn import functional as F
from ..nn.attention import NEG_INF
from ..nn.layers import Dropout, Embedding, LayerNorm, Linear, PositionwiseFeedForward
from ..nn.module import Module, ModuleList, Parameter
from ..nn.tensor import Tensor, no_grad
from .base import NeuralRecommender, register


class _IntervalAttentionBlock(Module):
    """Self-attention with learned linear spatio-temporal modulation."""

    def __init__(self, dim, hidden, dropout, rng):
        super().__init__()
        self.dim = dim
        self.attn_norm = LayerNorm(dim)
        self.w_q = Linear(dim, dim, bias=False, rng=rng)
        self.w_k = Linear(dim, dim, bias=False, rng=rng)
        self.w_v = Linear(dim, dim, bias=False, rng=rng)
        # Learned interval coefficients (time, distance, offset).
        self.interval_coef = Parameter(np.array([0.5, 0.5, 0.0], dtype=np.float32))
        self.drop = Dropout(dropout, rng=rng)
        self.ffn_norm = LayerNorm(dim)
        self.ffn = PositionwiseFeedForward(dim, hidden, dropout=dropout, rng=rng)

    def forward(self, x, dt_norm: np.ndarray, dd_norm: np.ndarray, mask: np.ndarray):
        h = self.attn_norm(x)
        q, k, v = self.w_q(h), self.w_k(h), self.w_v(h)
        scores = (q @ k.transpose()) * (1.0 / np.sqrt(self.dim))
        coef = self.interval_coef
        # Proximity = 1 − normalized interval: closer pairs score higher.
        bias = (
            coef[0] * Tensor((1.0 - dt_norm).astype(np.float32))
            + coef[1] * Tensor((1.0 - dd_norm).astype(np.float32))
            + coef[2]
        )
        scores = scores + bias
        scores = scores.masked_fill(mask, NEG_INF)
        attn = F.softmax(scores, axis=-1)
        x = x + self.drop(attn @ v)
        x = x + self.ffn(self.ffn_norm(x))
        return x


@register("STAN")
class STAN(NeuralRecommender):
    negative_style = "nearest"

    def __init__(
        self,
        num_pois: int,
        poi_coords: np.ndarray,
        dim: int = 48,
        num_blocks: int = 2,
        ffn_hidden: int = 96,
        dropout: float = 0.2,
        *,
        rng: np.random.Generator,
        **_,
    ):
        super().__init__()
        self.dim = dim
        self.poi_coords = np.asarray(poi_coords, dtype=np.float64)
        self.embedding = Embedding(num_pois + 1, dim, padding_idx=PAD_POI, rng=rng)
        self.drop = Dropout(dropout, rng=rng)
        self.blocks = ModuleList(
            [_IntervalAttentionBlock(dim, ffn_hidden, dropout, rng) for _ in range(num_blocks)]
        )
        self.final_norm = LayerNorm(dim)

    # ------------------------------------------------------------------
    def _normalized_intervals(self, src, times, pad):
        """Min-max normalized pairwise (Δt, Δd), zeros at padding."""
        times = np.asarray(times, dtype=np.float64)
        coords = self.poi_coords[np.asarray(src, dtype=np.int64)]
        dt = np.abs(times[..., :, None] - times[..., None, :]) / SECONDS_PER_DAY
        dd = haversine(
            coords[..., :, None, 0], coords[..., :, None, 1],
            coords[..., None, :, 0], coords[..., None, :, 1],
        )
        blocked = pad[..., :, None] | pad[..., None, :]

        def norm(m):
            m = np.where(blocked, 0.0, m)
            lo = m.min(axis=(-1, -2), keepdims=True)
            hi = m.max(axis=(-1, -2), keepdims=True)
            return (m - lo) / np.maximum(hi - lo, 1e-12)

        return norm(dt), norm(dd)

    def encode(self, src: np.ndarray, times: np.ndarray) -> Tensor:
        src = np.asarray(src, dtype=np.int64)
        pad = src == PAD_POI
        e = self.drop(self.embedding(src))
        mask = causal_attend_mask(pad)
        dt_norm, dd_norm = self._normalized_intervals(src, times, pad)
        for block in self.blocks:
            e = block(e, dt_norm, dd_norm, mask)
        return self.final_norm(e)

    def _match(self, enc: Tensor, cand_emb: Tensor, pad: np.ndarray) -> Tensor:
        """Attention matching layer: candidates attend the sequence."""
        b, c, d = cand_emb.shape
        n = enc.shape[1]
        scores = (cand_emb @ enc.transpose()) * (1.0 / np.sqrt(d))  # (b, c, n)
        scores = scores.masked_fill(pad[:, None, :], NEG_INF)
        weights = F.softmax(scores, axis=-1)
        s = weights @ enc                                           # (b, c, d)
        return (s * cand_emb).sum(axis=-1)                          # (b, c)

    def forward_train(self, src, times, targets, negatives, users=None):
        src = np.asarray(src, dtype=np.int64)
        b, n = src.shape
        enc = self.encode(src, times)
        # Per-step matching is quadratic in n×candidates; match against
        # the step outputs directly (STAN trains on the final step of
        # each window; step-wise dot-matching keeps the signal dense).
        tgt_emb = self.embedding(np.asarray(targets, dtype=np.int64))
        neg_emb = self.embedding(np.asarray(negatives, dtype=np.int64))
        pos = (enc * tgt_emb).sum(axis=-1)
        neg = (enc.reshape(b, n, 1, self.dim) * neg_emb).sum(axis=-1)
        return pos, neg

    def score_candidates(self, src, times, candidates, users=None) -> np.ndarray:
        src = np.asarray(src, dtype=np.int64)
        pad = src == PAD_POI
        with no_grad():
            enc = self.encode(src, times)
            cand_emb = self.embedding(np.asarray(candidates, dtype=np.int64))
            scores = self._match(enc, cand_emb, pad)
        return scores.data
