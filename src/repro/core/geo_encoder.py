"""GPS coordinate encoder — the GeoSAN-style geography encoder that
STiSAN concatenates with POI embeddings (Section III-B, footnote 3).

Each POI's GPS coordinate is quantized to a map-tile quadkey (level
``level``); the quadkey's character n-grams are embedded and pooled
into a dense geography vector.  Nearby POIs share long quadkey
prefixes, hence many n-grams, hence similar encodings — exactly the
inductive bias GeoSAN introduces.

Pooling modes
-------------
``mean``  average the n-gram embeddings then project (fast; default).
``attn``  single self-attention layer over the n-grams then average —
          closer to GeoSAN's original encoder, ~G× more FLOPs.

The encoder caches the (static) POI → n-gram-id matrix so a forward
pass is one embedding lookup plus a pooling reduction.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..geo.quadkey import QuadkeyVocab, quadkey_ngram_ids
from ..nn.attention import SelfAttention
from ..nn.layers import Embedding, Linear
from ..nn.module import Module
from ..nn.tensor import Tensor, no_grad
from ..obs import span


class GeographyEncoder(Module):
    """Encodes POI ids into geography vectors via quadkey n-grams.

    Parameters
    ----------
    poi_coords : (P + 1, 2) catalogue coordinates (row 0 = padding).
    dim : output dimension of the geography vector.
    level : quadkey zoom level (paper/GeoSAN use map level 17).
    ngram : n-gram width over the quadkey string.
    pooling : "mean" or "attn".
    """

    def __init__(
        self,
        poi_coords: np.ndarray,
        dim: int,
        level: int = 17,
        ngram: int = 6,
        pooling: str = "mean",
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if pooling not in ("mean", "attn"):
            raise ValueError(f"unknown pooling {pooling!r}")
        rng = rng or np.random.default_rng()
        self.dim = dim
        self.pooling = pooling

        # (P + 1, G): row 0 (padding POI) is all PAD n-grams.
        self.gram_ids, vocab_size = quadkey_ngram_ids(poi_coords, level=level, n=ngram)

        self.gram_embedding = Embedding(
            vocab_size, dim, padding_idx=QuadkeyVocab.PAD, rng=rng
        )
        self.project = Linear(dim, dim, rng=rng)
        if pooling == "attn":
            self.attn = SelfAttention(dim, rng=rng)

    def forward(self, poi_ids) -> Tensor:
        """POI ids (any shape) -> geography vectors (..., dim).

        The padding POI (id 0) maps to the zero vector.
        """
        with span("model.geo_encode"):
            ids = poi_ids.data if isinstance(poi_ids, Tensor) else np.asarray(poi_ids)
            ids = ids.astype(np.int64)
            grams = self.gram_ids[ids]                       # (..., G)
            embedded = self.gram_embedding(grams)            # (..., G, dim)
            if self.pooling == "attn":
                flat = embedded.reshape(-1, grams.shape[-1], self.dim)
                flat = self.attn(flat)
                embedded = flat.reshape(*grams.shape, self.dim)
            # Mean over real (non-PAD) n-grams.
            real = (grams != QuadkeyVocab.PAD).astype(np.float32)
            counts = np.maximum(real.sum(axis=-1, keepdims=True), 1.0)
            pooled = (embedded * Tensor(real[..., None])).sum(axis=-2) * Tensor(1.0 / counts)
            out = self.project(pooled)
            # Keep padding POIs exactly zero (project bias would leak otherwise).
            pad = (ids == 0)
            if pad.any():
                out = out.masked_fill(pad[..., None], 0.0)
            return out

    def encode_pois_cached(self, poi_ids, cache) -> np.ndarray:
        """Geography vectors via a per-POI LRU cache (serving path).

        POI coordinates are immutable, so the encoding of a POI id is a
        pure function of frozen weights: compute each unique id once
        (bitwise identical to :meth:`forward` — lookups, per-row pooling
        and a per-row linear projection), cache the row, and gather.
        Returns a raw ``(..., dim)`` float32 array (no autograd graph).
        """
        with span("model.geo_encode_cached"):
            return self._encode_pois_cached(poi_ids, cache)

    def _encode_pois_cached(self, poi_ids, cache) -> np.ndarray:
        ids = poi_ids.data if isinstance(poi_ids, Tensor) else np.asarray(poi_ids)
        ids = ids.astype(np.int64)
        flat = ids.reshape(-1)
        unique = np.unique(flat)
        vectors = {}
        missing = []
        for poi in unique:
            poi = int(poi)
            row = cache.get(poi)
            if row is None:
                missing.append(poi)
            else:
                vectors[poi] = row
        if missing:
            with no_grad():
                computed = self.forward(np.asarray(missing, dtype=np.int64)).data
            for poi, row in zip(missing, computed):
                cache.put(poi, row)
                vectors[poi] = row
        if len(flat) == 0:
            return np.zeros(ids.shape + (self.dim,), dtype=np.float32)
        table = np.stack([vectors[int(poi)] for poi in unique])
        out = table[np.searchsorted(unique, flat)]
        return out.reshape(ids.shape + (self.dim,))
