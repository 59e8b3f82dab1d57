"""SASRec — Self-Attentive Sequential Recommendation (Kang & McAuley,
ICDM 2018): POI embedding + learned absolute position embedding +
stacked causal self-attention blocks, matched against POI embeddings.

This is the backbone that TAPE/IAAB extend; the Fig. 4 / Fig. 6
extensibility experiments swap its position encoder or attention layer
for the paper's modules, which the constructor exposes via
``position_mode`` and ``use_interval_bias``.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.relation import (
    RelationConfig, build_relation_matrix, causal_attend_mask, scaled_relation_bias,
)
from ..core.tape import TimeAwarePositionEncoder, VanillaPositionEncoder
from ..data.types import PAD_POI
from ..nn.layers import Dropout, Embedding, LayerNorm
from ..nn.module import ModuleList
from ..nn.tensor import Tensor, no_grad
from ..core.iaab import IntervalAwareAttentionBlock
from .base import NeuralRecommender, register


@register("SASRec")
class SASRec(NeuralRecommender):
    """Vanilla self-attention backbone.

    ``position_mode``: "learned" (original SASRec), "sinusoid" (the PE
    of Fig. 4) or "tape" (the paper's TAPE drop-in — Fig. 4's variant).
    ``use_interval_bias``: replace SA with IAAB (Fig. 6's variant);
    requires ``poi_coords``.
    """

    negative_style = "uniform"

    def __init__(
        self,
        num_pois: int,
        max_len: int = 100,
        dim: int = 48,
        num_blocks: int = 2,
        ffn_hidden: int = 96,
        dropout: float = 0.2,
        position_mode: str = "learned",
        use_interval_bias: bool = False,
        poi_coords: Optional[np.ndarray] = None,
        relation: Optional[RelationConfig] = None,
        *,
        rng: np.random.Generator,
        **_,
    ):
        super().__init__()
        if position_mode not in ("learned", "sinusoid", "tape"):
            raise ValueError(f"unknown position_mode {position_mode!r}")
        if use_interval_bias and poi_coords is None:
            raise ValueError("interval bias requires poi_coords")
        self.dim = dim
        self.max_len = max_len
        self.position_mode = position_mode
        self.use_interval_bias = use_interval_bias
        self.relation = relation or RelationConfig()
        self.poi_coords = None if poi_coords is None else np.asarray(poi_coords, dtype=np.float64)

        self.embedding = Embedding(num_pois + 1, dim, padding_idx=PAD_POI, rng=rng)
        if position_mode == "learned":
            self.position_embedding = Embedding(max_len, dim, rng=rng)
        elif position_mode == "sinusoid":
            self._pos_encoder = VanillaPositionEncoder(dim)
        else:
            self._pos_encoder = TimeAwarePositionEncoder(dim)
        self.drop = Dropout(dropout, rng=rng)
        self.blocks = ModuleList(
            [
                IntervalAwareAttentionBlock(
                    dim,
                    ffn_hidden,
                    dropout=dropout,
                    use_relation=use_interval_bias,
                    use_attention=True,
                    rng=rng,
                )
                for _ in range(num_blocks)
            ]
        )
        self.final_norm = LayerNorm(dim)

    # ------------------------------------------------------------------
    def encode(
        self, src: np.ndarray, times: np.ndarray, return_weights: bool = False
    ):
        src = np.asarray(src, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        b, n = src.shape
        pad = src == PAD_POI
        e = self.embedding(src)
        if self.position_mode == "learned":
            pos_ids = np.broadcast_to(np.arange(n) % self.max_len, (b, n))
            p = self.position_embedding(pos_ids)
            p = p.masked_fill(pad[..., None], 0.0)
            e = e + p
        else:
            # Sinusoidal codes have unit-scale components; rescale the
            # small-init embeddings so they are not swamped (the usual
            # Transformer ×sqrt(d) trick).
            e = e * np.float32(np.sqrt(self.dim))
            e = e + Tensor(self._pos_encoder(times, pad_mask=pad))
        e = e.masked_fill(pad[..., None], 0.0)
        e = self.drop(e)

        mask = causal_attend_mask(pad)

        bias = None
        if self.use_interval_bias:
            coords = self.poi_coords[src]
            rel = build_relation_matrix(times, coords, config=self.relation, pad_mask=pad)
            bias = scaled_relation_bias(rel, mask)

        weights: List[np.ndarray] = []
        for block in self.blocks:
            if return_weights:
                e, w = block(e, bias, mask, return_weights=True)
                weights.append(w)
            else:
                e = block(e, bias, mask)
        e = self.final_norm(e)
        if return_weights:
            return e, weights
        return e

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
