"""GRU4Rec — session-based recommendation with a GRU (Hidasi et al.,
ICLR 2016), adapted to the paper's framework: trained on all prior
POIs (windowed sub-sequences) with step-wise next-POI targets.
"""

from __future__ import annotations

import numpy as np

from ..data.types import PAD_POI
from ..nn.layers import Dropout, Embedding
from ..nn.rnn import GRU
from ..nn.tensor import Tensor, no_grad
from .base import NeuralRecommender, register


@register("GRU4Rec")
class GRU4Rec(NeuralRecommender):
    negative_style = "uniform"

    def __init__(
        self,
        num_pois: int,
        dim: int = 48,
        dropout: float = 0.2,
        *,
        rng: np.random.Generator,
        **_,
    ):
        super().__init__()
        self.dim = dim
        self.embedding = Embedding(num_pois + 1, dim, padding_idx=PAD_POI, rng=rng)
        self.gru = GRU(dim, dim, rng=rng)
        self.drop = Dropout(dropout, rng=rng)

    def _encode(self, src: np.ndarray) -> Tensor:
        e = self.drop(self.embedding(src))
        return self.gru(e)                                    # (b, n, d)

    def forward_train(self, src, times, targets, negatives, users=None):
        out = self._encode(np.asarray(src, dtype=np.int64))
        tgt_emb = self.embedding(np.asarray(targets, dtype=np.int64))
        neg_emb = self.embedding(np.asarray(negatives, dtype=np.int64))
        pos = (out * tgt_emb).sum(axis=-1)                    # (b, n)
        neg = (out.reshape(*out.shape[:2], 1, self.dim) * neg_emb).sum(axis=-1)
        return pos, neg

    def score_candidates(self, src, times, candidates, users=None) -> np.ndarray:
        with no_grad():
            out = self._encode(np.asarray(src, dtype=np.int64))
            last = out[:, -1, :]                              # (b, d)
            cand = self.embedding(np.asarray(candidates, dtype=np.int64))
            scores = (cand * last.reshape(last.shape[0], 1, self.dim)).sum(axis=-1)
        return scores.data
