"""STiSAN — the full Spatial-Temporal Interval Aware Sequential POI
recommender (Fig. 3), assembled from TAPE, IAAB and TAAD.

Pipeline
--------
1. **Embedding** (III-B): each check-in is the concatenation of a POI
   embedding and a GPS quadkey encoding; padding check-ins are zero.
2. **TAPE** (III-C): time-stretched sinusoidal positions are added.
3. **IAAB × N** (III-E): causal self-attention with the softmax-scaled
   spatial-temporal relation matrix added to the attention map.
4. **TAAD** (III-F): candidates attend the encoder outputs to produce
   target-aware preference vectors.
5. **Matching** (III-G): inner-product scores, ranked for Top-K.

Every ablation variant of Table IV is reachable through
:class:`repro.core.config.STiSANConfig` switches.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..data.types import PAD_POI
from ..nn.layers import Dropout, Embedding, LayerNorm
from ..nn.module import Module, ModuleList
from ..nn.tensor import Tensor, concatenate
from ..obs import span
from .cache import ServingCaches
from .config import STiSANConfig
from .geo_encoder import GeographyEncoder
from .iaab import IntervalAwareAttentionBlock
from .relation import build_relation_matrix, build_relation_matrix_cached, scaled_relation_bias
from .taad import TargetAwareAttentionDecoder, preference_scores, step_causal_mask
from .tape import TimeAwarePositionEncoder, VanillaPositionEncoder


class STiSAN(Module):
    """End-to-end STiSAN model."""

    def __init__(
        self,
        num_pois: int,
        poi_coords: np.ndarray,
        config: Optional[STiSANConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        self.config = config or STiSANConfig()
        cfg = self.config
        rng = rng or np.random.default_rng()
        self.num_pois = num_pois
        self.poi_coords = np.asarray(poi_coords, dtype=np.float64)
        if len(self.poi_coords) != num_pois + 1:
            raise ValueError(
                f"poi_coords must have num_pois + 1 = {num_pois + 1} rows "
                f"(row 0 is padding), got {len(self.poi_coords)}"
            )

        d = cfg.dim
        self.poi_embedding = Embedding(num_pois + 1, cfg.poi_dim, padding_idx=PAD_POI, rng=rng)
        if cfg.use_geo:
            self.geo_encoder = GeographyEncoder(
                self.poi_coords,
                cfg.geo_dim,
                level=cfg.quadkey_level,
                ngram=cfg.quadkey_ngram,
                pooling=cfg.geo_pooling,
                rng=rng,
            )
        position_encoder = TimeAwarePositionEncoder if cfg.use_tape else VanillaPositionEncoder
        self.position_encoder = position_encoder(d)
        self.embed_dropout = Dropout(cfg.dropout, rng=rng)
        self.blocks = ModuleList(
            [
                IntervalAwareAttentionBlock(
                    d,
                    cfg.ffn_hidden,
                    dropout=cfg.dropout,
                    use_relation=cfg.use_relation,
                    use_attention=cfg.use_attention,
                    num_heads=cfg.num_heads,
                    rng=rng,
                )
                for _ in range(cfg.num_blocks)
            ]
        )
        self.final_norm = LayerNorm(d)
        self.decoder = TargetAwareAttentionDecoder(d)
        self.serving_caches: Optional[ServingCaches] = None

    # ------------------------------------------------------------------
    # Serving caches
    # ------------------------------------------------------------------
    def use_serving_caches(self, caches: Optional[ServingCaches]) -> None:
        """Attach (or detach with None) a serving-cache bundle.

        Caches are only consulted in eval mode — training always
        recomputes, so gradients and dropout stay untouched.  Cached
        paths are bitwise identical to the uncached ones; the service's
        equivalence suite enforces that.
        """
        self.serving_caches = caches

    def _active_caches(self) -> Optional[ServingCaches]:
        return self.serving_caches if not self.training else None

    # ------------------------------------------------------------------
    # Embedding
    # ------------------------------------------------------------------
    def embed(self, poi_ids: np.ndarray) -> Tensor:
        """POI ids (any shape) -> check-in representations (..., d):
        POI embedding ⊕ GPS encoding."""
        poi_vec = self.poi_embedding(poi_ids)
        if not self.config.use_geo:
            return poi_vec
        return concatenate([poi_vec, self.geo_encoder(poi_ids)], axis=-1)

    # ------------------------------------------------------------------
    # Encoder
    # ------------------------------------------------------------------
    def encode(
        self,
        src: np.ndarray,
        times: np.ndarray,
        return_weights: bool = False,
    ) -> Tensor | Tuple[Tensor, List[np.ndarray]]:
        """Run the embedding + TAPE + IAAB stack.

        Parameters
        ----------
        src : (b, n) POI ids with head padding.
        times : (b, n) unix-second timestamps.
        return_weights : also return each block's attention map.

        Returns
        -------
        (b, n, d) encoder outputs (plus the attention maps if asked).
        """
        src = np.asarray(src, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        pad = src == PAD_POI                                  # (b, n)
        n = src.shape[1]

        # Sinusoidal codes (TAPE or vanilla PE) have unit-scale
        # components; rescale the small-init embeddings before adding
        # them (the usual Transformer ×sqrt(d) trick).
        with span("model.embed"):
            e = self.embed(src) * np.float32(np.sqrt(self.config.dim))
            e = e + Tensor(self.position_encoder(times, pad_mask=pad))
            # Padding rows stay exactly zero.
            e = e.masked_fill(pad[..., None], 0.0)
            e = self.embed_dropout(e)

        attend_mask = self._attend_mask(pad, n)
        relation_bias = None
        if self.config.use_relation:
            with span("model.relation_build"):
                coords = self.poi_coords[src]
                caches = self._active_caches()
                if caches is not None:
                    relation = build_relation_matrix_cached(
                        times, coords, self.config.relation, pad,
                        caches.relations, owners=caches.row_owners,
                    )
                else:
                    relation = build_relation_matrix(
                        times, coords, config=self.config.relation, pad_mask=pad
                    )
                relation_bias = scaled_relation_bias(relation, attend_mask)

        weights_per_block: List[np.ndarray] = []
        with span("model.attention"):
            for block in self.blocks:
                if return_weights:
                    e, w = block(e, relation_bias, attend_mask, return_weights=True)
                    weights_per_block.append(w)
                else:
                    e = block(e, relation_bias, attend_mask)
        e = self.final_norm(e)
        e = e.masked_fill(pad[..., None], 0.0)
        if return_weights:
            return e, weights_per_block
        return e

    @staticmethod
    def _attend_mask(pad: np.ndarray, n: int) -> np.ndarray:
        """(b, n, n) bool: block future positions and padding keys."""
        future = np.triu(np.ones((n, n), dtype=bool), k=1)
        mask = future[None, :, :] | pad[:, None, :]
        # A fully-blocked row would make softmax degenerate; let padding
        # query rows attend themselves (their outputs are masked anyway).
        diag = np.eye(n, dtype=bool)
        mask = np.where(pad[:, :, None], ~diag[None, :, :], mask)
        return mask

    # ------------------------------------------------------------------
    # Training forward
    # ------------------------------------------------------------------
    def forward_train(
        self,
        src: np.ndarray,
        times: np.ndarray,
        targets: np.ndarray,
        negatives: np.ndarray,
    ) -> Tuple[Tensor, Tensor]:
        """Score the true target and its negatives at every step.

        Returns (pos_scores (b, n), neg_scores (b, n, L)).
        """
        src = np.asarray(src, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        negatives = np.asarray(negatives, dtype=np.int64)
        b, n = src.shape
        enc = self.encode(src, times)                         # (b, n, d)

        cand_ids = np.concatenate([targets[..., None], negatives], axis=-1)  # (b, n, 1+L)
        cand = self.embed(cand_ids)                            # (b, n, 1+L, d)

        if self.config.use_taad:
            pad_keys = (src == PAD_POI)[:, None, None, :]      # (b, 1, 1, n)
            mask = step_causal_mask(n, n)[None, ...] | pad_keys
            s = self.decoder(cand, enc, attend_mask=mask)      # (b, n, 1+L, d)
        else:
            # Ablation "Remove TAAD": match encoder output directly (Eq. 17).
            s = enc.reshape(b, n, 1, enc.shape[-1])
        scores = preference_scores(s, cand)                    # (b, n, 1+L)
        return scores[..., 0], scores[..., 1:]

    # ------------------------------------------------------------------
    # Recommendation forward
    # ------------------------------------------------------------------
    def score_candidates(
        self,
        src: np.ndarray,
        times: np.ndarray,
        candidates: np.ndarray,
    ) -> np.ndarray:
        """Preference scores over explicit candidate slates.

        ``candidates``: (b, c) POI ids; returns (b, c) float scores for
        the *next* check-in after the full source sequence.
        """
        src = np.asarray(src, dtype=np.int64)
        candidates = np.asarray(candidates, dtype=np.int64)
        enc = self.encode(src, times)                          # (b, n, d)
        cand = self.embed(candidates)                          # (b, c, d)
        if self.config.use_taad:
            pad_keys = (src == PAD_POI)[:, None, None, :]      # (b, 1, 1, n)
            s = self.decoder(cand, enc, attend_mask=pad_keys)  # (b, c, d)
        else:
            last = enc[:, -1:, :]                              # (b, 1, d)
            s = last
        return preference_scores(s, cand).data

    def recommend(
        self,
        src: np.ndarray,
        times: np.ndarray,
        candidates: np.ndarray,
        k: int = 10,
    ) -> np.ndarray:
        """Top-K recommendation (Eq. 1): ranked candidate POI ids."""
        scores = self.score_candidates(src, times, candidates)
        order = np.argsort(-scores, axis=-1)[:, :k]
        return np.take_along_axis(np.asarray(candidates), order, axis=-1)
