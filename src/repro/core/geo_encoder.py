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

The encoder keeps the (static) POI → n-gram-id matrix, so a forward
pass encodes each distinct POI id once — one embedding lookup plus a
pooling reduction and a projection over the U distinct ids — and
gathers the ``(U, dim)`` rows back into the input's shape.  Training,
evaluation and serving all take this one path.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..geo.quadkey import QuadkeyVocab, quadkey_ngram_ids
from ..nn.attention import SelfAttention
from ..nn.functional import embedding_lookup
from ..nn.layers import Embedding, Linear
from ..nn.module import Module
from ..nn.tensor import Tensor
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

        The encoding is a pure function of a POI's location, so each
        distinct id is encoded once and the rows are gathered back into
        the input's shape.  The padding POI (id 0) maps to the zero
        vector; an id outside ``[0, P]`` raises ``IndexError``.
        """
        with span("model.geo_encode"):
            ids = poi_ids.data if isinstance(poi_ids, Tensor) else np.asarray(poi_ids)
            unique, inverse = np.unique(ids.astype(np.int64), return_inverse=True)
            if unique.size and (unique[0] < 0 or unique[-1] >= len(self.gram_ids)):
                raise IndexError(
                    f"POI id out of range [0, {len(self.gram_ids)}): "
                    f"min={unique[0]}, max={unique[-1]}"
                )
            grams = self.gram_ids[unique]                    # (U, G)
            embedded = self.gram_embedding(grams)            # (U, G, dim)
            if self.pooling == "attn":
                embedded = self.attn(embedded)
            # Mean over real (non-PAD) n-grams.
            real = (grams != QuadkeyVocab.PAD).astype(np.float32)
            counts = np.maximum(real.sum(axis=-1, keepdims=True), 1.0)
            pooled = (embedded * Tensor(real[..., None])).sum(axis=-2) * Tensor(1.0 / counts)
            table = self.project(pooled)                     # (U, dim)
            # Keep padding POIs exactly zero (project bias would leak otherwise).
            if unique.size and unique[0] == 0:
                table = table.masked_fill((unique == 0)[:, None], 0.0)
            return embedding_lookup(table, inverse.reshape(ids.shape))

    #: The name the benchmark's traced runs wrap; nothing in ``repro`` calls it.
    encode_pois_cached = forward
