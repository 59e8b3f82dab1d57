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

Only the live columns are run.  Inference groups rows by
:func:`live_cut` and each group runs steps 1–4 on its columns from the
cut on.  A training step runs the whole batch from its smallest cut;
dropout draws its masks at the full width and slices them, so the RNG
stream is unchanged (see ``DESIGN.md``, "Running only the live
columns").

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
from .relation import (
    build_relation_matrix, build_relation_matrix_cached, causal_attend_mask, scaled_relation_bias,
)
from .taad import TargetAwareAttentionDecoder, preference_scores, step_causal_mask
from .tape import TimeAwarePositionEncoder, VanillaPositionEncoder


def live_cut(pad: np.ndarray) -> np.ndarray:
    """(b,) first column each row's forward must keep.

    It is the row's first non-padding column rounded down to a multiple
    of 8 (0 for a row that is all padding).  Every column before it is
    head padding, which no real position attends and whose outputs are
    zeroed, so dropping it leaves the live columns' outputs unchanged.
    The 8-alignment keeps every live column in the same lane of numpy's
    8-lane pairwise sums over the key axis, so the softmax denominators
    stay bitwise.
    """
    first = np.argmin(pad, axis=-1)
    return first - first % 8


def _pad_head(t: Tensor, cut: int) -> Tensor:
    """(b, w, ...) -> (b, cut + w, ...) with zeros in the first ``cut`` columns."""
    if cut == 0:
        return t
    head = np.zeros((t.shape[0], cut, *t.shape[2:]), dtype=t.data.dtype)
    return concatenate([Tensor(head), t], axis=1)


class STiSAN(Module):
    """End-to-end STiSAN model."""

    def __init__(
        self,
        num_pois: int,
        poi_coords: np.ndarray,
        config: Optional[STiSANConfig] = None,
        *,
        rng: np.random.Generator,
    ):
        super().__init__()
        self.config = config or STiSANConfig()
        cfg = self.config
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
        return_weights : also return each block's full (b, n, n)
            attention maps.

        Returns
        -------
        (b, n, d) encoder outputs (plus the attention maps if asked).
        Where :meth:`_row_cuts` allows it, the stack runs from the
        batch's smallest :func:`live_cut` on and the dropped head-padding
        columns come back as zero rows.
        """
        src = np.asarray(src, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        pad = src == PAD_POI                                  # (b, n)
        if return_weights:
            return self._encode_live(src, times, pad, 0, return_weights=True)
        cut = self._batch_cut(pad)
        return _pad_head(self._encode_live(src, times, pad, cut), cut)

    def _row_cuts(self, pad: np.ndarray) -> np.ndarray:
        """Per-row :func:`live_cut`, or zeros while serving caches are
        active: the relation LRU keys whole rows, so cached serving runs
        the full width."""
        if self._active_caches() is not None:
            return np.zeros(pad.shape[0], dtype=np.int64)
        return live_cut(pad)

    def _batch_cut(self, pad: np.ndarray) -> int:
        """The smallest of :meth:`_row_cuts`: the first column every row
        of the batch must keep."""
        cuts = self._row_cuts(pad)
        return int(cuts.min()) if cuts.size else 0

    def _encode_live(
        self,
        src: np.ndarray,
        times: np.ndarray,
        pad: np.ndarray,
        cut: int,
        return_weights: bool = False,
    ) -> Tensor | Tuple[Tensor, List[np.ndarray]]:
        """The encoder on columns ``cut:`` -> (b, n - cut, d).

        Position codes count the head padding (Eq. 2 and vanilla PE are
        absolute), so they come from the full-width window and are then
        sliced, never recomputed on the trimmed one.  Every dropout gets
        ``cut`` and draws its mask at the full width, so a trimmed
        training step consumes the same random numbers as a full one.
        """
        codes = self.position_encoder(times, pad_mask=pad)[:, cut:]
        src, times, pad = src[:, cut:], times[:, cut:], pad[:, cut:]

        # Sinusoidal codes (TAPE or vanilla PE) have unit-scale
        # components; rescale the small-init embeddings before adding
        # them (the usual Transformer ×sqrt(d) trick).
        with span("model.embed"):
            e = self.embed(src) * np.float32(np.sqrt(self.config.dim))
            e = e + Tensor(codes)
            # Padding rows stay exactly zero.
            e = e.masked_fill(pad[..., None], 0.0)
            e = self.embed_dropout(e, cut=cut)

        attend_mask = causal_attend_mask(pad)
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
                    e, w = block(e, relation_bias, attend_mask, return_weights=True, cut=cut)
                    weights_per_block.append(w)
                else:
                    e = block(e, relation_bias, attend_mask, cut=cut)
        e = self.final_norm(e)
        e = e.masked_fill(pad[..., None], 0.0)
        if return_weights:
            return e, weights_per_block
        return e

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

        Returns (pos_scores (b, n), neg_scores (b, n, L)).  The step runs
        on the columns from the batch's smallest :func:`live_cut` on; the
        columns before it are head padding in every row, so their
        targets are padding too and their scores come back as zeros,
        which the loss masks.
        """
        src = np.asarray(src, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.int64)
        negatives = np.asarray(negatives, dtype=np.int64)
        if src.ndim != 2 or times.shape != src.shape or targets.shape != src.shape:
            raise ValueError(
                "src, times and targets must share one (b, n) shape, got "
                f"{src.shape}, {times.shape} and {targets.shape}"
            )
        if negatives.ndim != 3 or negatives.shape[:2] != src.shape:
            raise ValueError(
                f"negatives must be (b, n, L) with (b, n) = {src.shape}, got {negatives.shape}"
            )
        pad = src == PAD_POI                                   # (b, n)
        if np.any(pad & (targets != PAD_POI)):
            # TAAD would attend no key for such a step (a uniform
            # softmax over every step, future ones included).
            raise ValueError("targets must be padding wherever src is padding")
        b, n = src.shape
        cut = self._batch_cut(pad)
        w = n - cut
        enc = self._encode_live(src, times, pad, cut)          # (b, w, d)

        cand_ids = np.concatenate([targets[:, cut:, None], negatives[:, cut:]], axis=-1)
        cand = self.embed(cand_ids)                            # (b, w, 1+L, d)

        if self.config.use_taad:
            pad_keys = pad[:, None, None, cut:]                # (b, 1, 1, w)
            mask = step_causal_mask(w, w)[None, ...] | pad_keys
            s = self.decoder(cand, enc, attend_mask=mask)      # (b, w, 1+L, d)
        else:
            # Ablation "Remove TAAD": match encoder output directly (Eq. 17).
            s = enc.reshape(b, w, 1, enc.shape[-1])
        scores = _pad_head(preference_scores(s, cand), cut)    # (b, n, 1+L)
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
        the *next* check-in after the full source sequence.  Rows are
        grouped by :func:`live_cut`; each group runs the encoder and
        TAAD on its columns from the cut on.
        """
        src = np.asarray(src, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        candidates = np.asarray(candidates, dtype=np.int64)
        if src.ndim != 2 or times.shape != src.shape:
            raise ValueError(
                f"src and times must share one (b, n) shape, got {src.shape} and {times.shape}"
            )
        if candidates.ndim != 2 or len(candidates) != len(src):
            raise ValueError(
                f"candidates must be (b, c) with b = {len(src)} rows, got {candidates.shape}"
            )
        pad = src == PAD_POI
        cuts = self._row_cuts(pad)
        cand_all = self.embed(candidates)                      # (b, c, d)
        scores = np.empty(candidates.shape, dtype=np.float32)
        groups = np.unique(cuts)
        for cut in groups:
            # One group (always so with serving caches) takes views, not copies.
            rows = np.flatnonzero(cuts == cut) if len(groups) > 1 else slice(None)
            enc = self._encode_live(src[rows], times[rows], pad[rows], int(cut))
            cand = cand_all[rows]                              # (g, c, d)
            if self.config.use_taad:
                pad_keys = pad[rows, cut:][:, None, None, :]  # (g, 1, 1, n - cut)
                s = self.decoder(cand, enc, attend_mask=pad_keys)
            else:
                s = enc[:, -1:, :]                             # (g, 1, d)
            scores[rows] = preference_scores(s, cand).data
        return scores

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
