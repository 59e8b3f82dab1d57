"""TiSASRec — Time Interval Aware Self-Attention (Li et al., WSDM 2020).

SASRec plus *relative time-interval* information inside attention: the
pairwise interval |t_i − t_j|, expressed in units of the user's minimum
interval and clipped at ``k_buckets``, indexes learned embeddings that
modulate the attention computation.

Faithfulness note: the original injects interval embeddings into both
keys and values; building the full (b, n, n, d) key-interval tensor is
memory-prohibitive in pure numpy, so this implementation uses the
bucketed intervals as a *learned additive attention bias* (one scalar
embedding per bucket per block — the same mechanism T5 uses for
relative positions).  It preserves what the paper ablates against:
attention weights that depend on relative time intervals through
learned parameters.  See DESIGN.md §2.
"""

from __future__ import annotations

import numpy as np

from ..core.relation import causal_attend_mask
from ..data.types import PAD_POI
from ..nn.layers import Dropout, Embedding, LayerNorm
from ..nn.module import Module, ModuleList
from ..nn.tensor import Tensor, no_grad
from ..nn import functional as F
from ..nn.attention import NEG_INF
from ..nn.layers import Linear, PositionwiseFeedForward
from .base import NeuralRecommender, register


class _TimeBiasBlock(Module):
    """Causal attention block with a learned per-bucket interval bias."""

    def __init__(self, dim, hidden, num_buckets, dropout, rng):
        super().__init__()
        self.dim = dim
        self.attn_norm = LayerNorm(dim)
        self.w_q = Linear(dim, dim, bias=False, rng=rng)
        self.w_k = Linear(dim, dim, bias=False, rng=rng)
        self.w_v = Linear(dim, dim, bias=False, rng=rng)
        self.bucket_bias = Embedding(num_buckets + 1, 1, rng=rng, std=0.01)
        self.drop = Dropout(dropout, rng=rng)
        self.ffn_norm = LayerNorm(dim)
        self.ffn = PositionwiseFeedForward(dim, hidden, dropout=dropout, rng=rng)

    def forward(self, x, buckets: np.ndarray, mask: np.ndarray):
        h = self.attn_norm(x)
        q, k, v = self.w_q(h), self.w_k(h), self.w_v(h)
        scores = (q @ k.transpose()) * (1.0 / np.sqrt(self.dim))
        bias = self.bucket_bias(buckets)                       # (b, n, n, 1)
        scores = scores + bias.reshape(*buckets.shape)
        scores = scores.masked_fill(mask, NEG_INF)
        attn = F.softmax(scores, axis=-1)
        x = x + self.drop(attn @ v)
        x = x + self.ffn(self.ffn_norm(x))
        return x


@register("TiSASRec")
class TiSASRec(NeuralRecommender):
    negative_style = "uniform"

    def __init__(
        self,
        num_pois: int,
        max_len: int = 100,
        dim: int = 48,
        num_blocks: int = 2,
        ffn_hidden: int = 96,
        num_buckets: int = 64,
        dropout: float = 0.2,
        *,
        rng: np.random.Generator,
        **_,
    ):
        super().__init__()
        self.dim = dim
        self.max_len = max_len
        self.num_buckets = num_buckets
        self.embedding = Embedding(num_pois + 1, dim, padding_idx=PAD_POI, rng=rng)
        self.position_embedding = Embedding(max_len, dim, rng=rng)
        self.drop = Dropout(dropout, rng=rng)
        self.blocks = ModuleList(
            [
                _TimeBiasBlock(dim, ffn_hidden, num_buckets, dropout, rng)
                for _ in range(num_blocks)
            ]
        )
        self.final_norm = LayerNorm(dim)

    def _interval_buckets(self, times: np.ndarray, pad: np.ndarray) -> np.ndarray:
        """Personalized bucketed |t_i − t_j| (TiSASRec's relation matrix).

        Intervals are expressed in units of each sequence's minimum
        positive interval and clipped at ``num_buckets``.
        """
        times = np.asarray(times, dtype=np.float64)
        diff = np.abs(times[..., :, None] - times[..., None, :])
        step = np.diff(times, axis=-1)
        step = np.where(step > 0, step, np.inf)
        min_step = step.min(axis=-1)
        min_step = np.where(np.isfinite(min_step), min_step, 1.0)
        buckets = np.floor(diff / min_step[..., None, None])
        buckets = np.clip(buckets, 0, self.num_buckets).astype(np.int64)
        buckets[pad[..., :, None] | pad[..., None, :]] = 0
        return buckets

    def encode(self, src: np.ndarray, times: np.ndarray) -> Tensor:
        src = np.asarray(src, dtype=np.int64)
        b, n = src.shape
        pad = src == PAD_POI
        pos_ids = np.broadcast_to(np.arange(n) % self.max_len, (b, n))
        e = self.embedding(src) + self.position_embedding(pos_ids).masked_fill(
            pad[..., None], 0.0
        )
        e = self.drop(e.masked_fill(pad[..., None], 0.0))

        mask = causal_attend_mask(pad)
        buckets = self._interval_buckets(times, pad)
        for block in self.blocks:
            e = block(e, buckets, mask)
        return self.final_norm(e)

    def forward_train(self, src, times, targets, negatives, users=None):
        out = self.encode(src, times)
        tgt_emb = self.embedding(np.asarray(targets, dtype=np.int64))
        neg_emb = self.embedding(np.asarray(negatives, dtype=np.int64))
        pos = (out * tgt_emb).sum(axis=-1)
        neg = (out.reshape(*out.shape[:2], 1, self.dim) * neg_emb).sum(axis=-1)
        return pos, neg

    def score_candidates(self, src, times, candidates, users=None) -> np.ndarray:
        with no_grad():
            out = self.encode(src, times)
            last = out[:, -1, :]
            cand = self.embedding(np.asarray(candidates, dtype=np.int64))
            scores = (cand * last.reshape(last.shape[0], 1, self.dim)).sum(axis=-1)
        return scores.data
