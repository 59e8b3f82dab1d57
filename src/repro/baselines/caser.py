"""Caser — Convolutional Sequence Embedding Recommendation (Tang &
Wang, WSDM 2018).

Each prediction looks at the previous ``markov_len`` check-ins as an
(L, d) "image"; horizontal filters capture union-level patterns,
vertical filters learn weighted sums over positions, and the pooled
features are fused with a user embedding before inner-product matching
against candidate embeddings.

Step-wise training slides the length-L window along the sequence with
:func:`repro.nn.conv.unfold_sequence`, so one forward covers every step
that has a full window (the first ``markov_len − 1`` steps are masked
out via :meth:`train_step_mask`).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..core.config import TrainConfig
from ..data.sequences import SequenceExample
from ..data.types import PAD_POI, CheckInDataset
from ..nn.conv import HorizontalConv, VerticalConv, unfold_sequence
from ..nn.layers import Dropout, Embedding, Linear
from ..nn.tensor import Tensor, concatenate, no_grad
from .base import NeuralRecommender, register


@register("Caser")
class Caser(NeuralRecommender):
    negative_style = "uniform"

    def __init__(
        self,
        num_pois: int,
        num_users: int = 0,
        dim: int = 48,
        markov_len: int = 5,
        num_h_filters: int = 16,
        num_v_filters: int = 4,
        dropout: float = 0.2,
        *,
        rng: np.random.Generator,
        **_,
    ):
        super().__init__()
        self.dim = dim
        self.markov_len = markov_len
        self.embedding = Embedding(num_pois + 1, dim, padding_idx=PAD_POI, rng=rng)
        heights = [h for h in (2, 3, markov_len) if h <= markov_len]
        self.h_conv = HorizontalConv(dim, heights, num_h_filters, rng=rng)
        self.v_conv = VerticalConv(markov_len, num_v_filters, rng=rng)
        fused_in = self.h_conv.out_dim + num_v_filters * dim
        self.fc = Linear(fused_in, dim, rng=rng)
        self.drop = Dropout(dropout, rng=rng)
        # User embeddings keyed lazily by id (users are known at fit time).
        self.num_users = num_users
        self.user_embedding: Optional[Embedding] = None
        self._user_index: Dict[int, int] = {}
        self._rng = rng

    # ------------------------------------------------------------------
    def _window_vectors(self, windows: Tensor) -> Tensor:
        """(m, L, d) windows -> (m, d) convolutional sequence vectors."""
        h = self.h_conv(windows)
        v = self.v_conv(windows)
        fused = concatenate([h, v], axis=-1)
        return self.drop(self.fc(fused).relu())

    def train_step_mask(self, src: np.ndarray) -> np.ndarray:
        src = np.asarray(src)
        mask = np.ones(src.shape, dtype=bool)
        mask[:, : self.markov_len - 1] = False
        return mask

    def fit(
        self,
        dataset: CheckInDataset,
        examples: List[SequenceExample],
        config: Optional[TrainConfig] = None,
    ) -> None:
        users = sorted({e.user for e in examples})
        self._user_index = {u: i + 1 for i, u in enumerate(users)}  # 0 = unknown
        self.user_embedding = Embedding(len(users) + 1, self.dim, padding_idx=0, rng=self._rng)
        super().fit(dataset, examples, config)

    def forward_train(self, src, times, targets, negatives, users=None):
        src = np.asarray(src, dtype=np.int64)
        b, n = src.shape
        L = self.markov_len
        emb = self.embedding(src)                              # (b, n, d)
        # Windows ending at steps L-1 .. n-1.
        w = n - L + 1
        unfolded = unfold_sequence(emb, L).reshape(b * w, L, self.dim)
        z = self._window_vectors(unfolded).reshape(b, w, self.dim)
        # Left-pad with zeros for uncovered steps (masked in the loss).
        pad = Tensor(np.zeros((b, L - 1, self.dim), dtype=np.float32))
        z = concatenate([pad, z], axis=1)                      # (b, n, d)
        z = z + self._user_vectors(users, b)
        tgt_emb = self.embedding(np.asarray(targets, dtype=np.int64))
        neg_emb = self.embedding(np.asarray(negatives, dtype=np.int64))
        pos = (z * tgt_emb).sum(axis=-1)
        neg = (z.reshape(b, n, 1, self.dim) * neg_emb).sum(axis=-1)
        return pos, neg

    def _user_vectors(self, users, batch_size: int) -> Tensor:
        if users is None or self.user_embedding is None:
            return Tensor(np.zeros((batch_size, 1, self.dim), dtype=np.float32))
        idx = np.array([self._user_index.get(int(u), 0) for u in users])
        return self.user_embedding(idx).reshape(batch_size, 1, self.dim)

    def score_candidates(self, src, times, candidates, users=None) -> np.ndarray:
        src = np.asarray(src, dtype=np.int64)
        candidates = np.asarray(candidates, dtype=np.int64)
        b = src.shape[0]
        with no_grad():
            last = src[:, -self.markov_len:]
            if last.shape[1] < self.markov_len:
                pad = np.zeros((b, self.markov_len - last.shape[1]), dtype=np.int64)
                last = np.concatenate([pad, last], axis=1)
            emb = self.embedding(last)
            z = self._window_vectors(emb)                      # (b, d)
            if users is not None and self.user_embedding is not None:
                idx = np.array([self._user_index.get(int(u), 0) for u in users])
                z = z + self.user_embedding(idx)
            cand = self.embedding(candidates)
            scores = (cand * z.reshape(b, 1, self.dim)).sum(axis=-1)
        return scores.data
