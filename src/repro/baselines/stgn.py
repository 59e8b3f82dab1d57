"""STGN — Spatio-Temporal Gated Network (Zhao et al., AAAI 2019).

An LSTM whose cell is augmented with time gates (driven by the interval
since the previous check-in) and distance gates (driven by the
geographical gap), letting interval information modulate both the cell
update and the output path.  The cell lives in
:class:`repro.nn.rnn.STGNCell`; this module unrolls it over windows and
matches hidden states against candidate POI embeddings.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..data.types import PAD_POI, SECONDS_PER_DAY
from ..geo.haversine import haversine
from ..nn.layers import Dropout, Embedding
from ..nn.rnn import STGNCell
from ..nn.tensor import Tensor, no_grad, stack
from .base import NeuralRecommender, register


@register("STGN")
class STGN(NeuralRecommender):
    negative_style = "uniform"

    def __init__(
        self,
        num_pois: int,
        poi_coords: np.ndarray,
        dim: int = 48,
        dropout: float = 0.2,
        dt_scale_days: float = 7.0,
        dd_scale_km: float = 20.0,
        *,
        rng: np.random.Generator,
        **_,
    ):
        super().__init__()
        self.dim = dim
        self.poi_coords = np.asarray(poi_coords, dtype=np.float64)
        self.dt_scale = dt_scale_days
        self.dd_scale = dd_scale_km
        self.embedding = Embedding(num_pois + 1, dim, padding_idx=PAD_POI, rng=rng)
        self.cell = STGNCell(dim, dim, rng=rng)
        self.drop = Dropout(dropout, rng=rng)

    def _intervals(self, src: np.ndarray, times: np.ndarray):
        """Per-step normalized (dt, dd) arrays of shape (b, n)."""
        times = np.asarray(times, dtype=np.float64)
        coords = self.poi_coords[np.asarray(src, dtype=np.int64)]
        dt = np.zeros_like(times)
        dt[:, 1:] = np.diff(times, axis=1) / SECONDS_PER_DAY / self.dt_scale
        dd = np.zeros_like(times)
        dd[:, 1:] = haversine(
            coords[:, :-1, 0], coords[:, :-1, 1], coords[:, 1:, 0], coords[:, 1:, 1]
        ) / self.dd_scale
        pad = np.asarray(src) == PAD_POI
        dt[pad] = 0.0
        dd[pad] = 0.0
        return np.clip(dt, 0, 5).astype(np.float32), np.clip(dd, 0, 5).astype(np.float32)

    def _encode(self, src: np.ndarray, times: np.ndarray) -> Tensor:
        src = np.asarray(src, dtype=np.int64)
        b, n = src.shape
        emb = self.drop(self.embedding(src))
        dt, dd = self._intervals(src, times)
        h = Tensor(np.zeros((b, self.dim), dtype=np.float32))
        c = Tensor(np.zeros((b, self.dim), dtype=np.float32))
        c_hat = Tensor(np.zeros((b, self.dim), dtype=np.float32))
        outputs: List[Tensor] = []
        for t in range(n):
            h, c, c_hat = self.cell(
                emb[:, t, :],
                (h, c, c_hat),
                Tensor(dt[:, t:t + 1]),
                Tensor(dd[:, t:t + 1]),
            )
            outputs.append(h)
        return stack(outputs, axis=1)                          # (b, n, d)

    def forward_train(self, src, times, targets, negatives, users=None):
        out = self._encode(src, times)
        tgt_emb = self.embedding(np.asarray(targets, dtype=np.int64))
        neg_emb = self.embedding(np.asarray(negatives, dtype=np.int64))
        pos = (out * tgt_emb).sum(axis=-1)
        neg = (out.reshape(*out.shape[:2], 1, self.dim) * neg_emb).sum(axis=-1)
        return pos, neg

    def score_candidates(self, src, times, candidates, users=None) -> np.ndarray:
        with no_grad():
            out = self._encode(src, times)
            last = out[:, -1, :]
            cand = self.embedding(np.asarray(candidates, dtype=np.int64))
            scores = (cand * last.reshape(last.shape[0], 1, self.dim)).sum(axis=-1)
        return scores.data
