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

Only the live columns are run.  Every row runs from its own
:func:`live_cut`: the rows' live tokens are packed into one stack
(:class:`repro.core.packing.Packing`), row-local work runs once on it,
and attention and TAAD run once per cut group.  Dropout draws its masks
at the full batch shape and packs them, so the RNG stream is unchanged
(see ``DESIGN.md``, "Running only the live columns").

Every ablation variant of Table IV is reachable through
:class:`repro.core.config.STiSANConfig` switches.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..data.types import PAD_POI
from ..nn.layers import Dropout, Embedding, LayerNorm
from ..nn.module import Module, ModuleList
from ..nn.tensor import Tensor, concatenate, split
from ..obs import span
from .cache import ServingCaches
from .config import STiSANConfig
from .geo_encoder import GeographyEncoder
from .iaab import IntervalAwareAttentionBlock
from .packing import Packing
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
        Where :meth:`_row_cuts` allows it, each row runs from its own
        :func:`live_cut` and the dropped head-padding columns come back
        as zero rows.
        """
        src = np.asarray(src, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        pad = src == PAD_POI                                  # (b, n)
        cuts = np.zeros(len(src), dtype=np.int64) if return_weights else self._row_cuts(pad)
        packing = Packing(cuts, src.shape[1])
        e, = self._embed_packed(packing, src)
        if return_weights:
            return self._encode(e, src, times, pad, packing, return_weights=True)
        return packing.unpack(self._encode(e, src, times, pad, packing))

    def _row_cuts(self, pad: np.ndarray) -> np.ndarray:
        """Per-row :func:`live_cut`, or zeros while serving caches are
        active: the relation LRU keys whole rows, so cached serving runs
        the full width."""
        if self._active_caches() is not None:
            return np.zeros(pad.shape[0], dtype=np.int64)
        return live_cut(pad)

    def _embed_packed(self, packing: Packing, src: np.ndarray, *others: np.ndarray) -> List[Tensor]:
        """The packed source tokens and any ``others`` (arrays of more POI
        ids) embedded in one call -> one (..., d) tensor for each."""
        tokens = packing.pack(src)
        with span("model.embed"):
            if not others:
                return [self.embed(tokens)]
            e = self.embed(np.concatenate([tokens.ravel(), *(ids.ravel() for ids in others)]))
        return split(e, [(*ids.shape, e.shape[-1]) for ids in (tokens, *others)])

    def _encode(
        self,
        e: Tensor,
        src: np.ndarray,
        times: np.ndarray,
        pad: np.ndarray,
        packing: Packing,
        return_weights: bool = False,
    ) -> Tensor | Tuple[Tensor, List[np.ndarray]]:
        """The encoder on every row's live columns -> the packed outputs.

        ``e`` is the embedding of the packed source tokens
        (:meth:`_embed_packed`).

        Position codes count the head padding (Eq. 2 and vanilla PE are
        absolute), so they come from the full-width window and are then
        packed, never recomputed on a trimmed one.  Every dropout gets
        the packing and draws its mask at the batch shape, so a packed
        training step consumes the same random numbers as a full one.
        The attend mask and relation bias are built per cut group from
        the group's own rows and columns.
        """
        codes = packing.pack(self.position_encoder(times, pad_mask=pad))
        live_pad = packing.pack(pad)

        # Sinusoidal codes (TAPE or vanilla PE) have unit-scale
        # components; rescale the small-init embeddings before adding
        # them (the usual Transformer ×sqrt(d) trick).
        e = e * np.float32(np.sqrt(self.config.dim))
        e = e + Tensor(codes)
        # Padding rows stay exactly zero.
        e = e.masked_fill(live_pad[..., None], 0.0)
        e = self.embed_dropout(e, packing)

        attend_masks, relation_biases = [], []
        for g_src, g_times, g_pad in zip(
            packing.per_group(src), packing.per_group(times), packing.per_group(pad)
        ):
            mask = causal_attend_mask(g_pad)
            attend_masks.append(mask)
            relation_biases.append(
                self._relation_bias(g_src, g_times, g_pad, mask)
                if self.config.use_relation else None
            )

        weights_per_block: List[np.ndarray] = []
        with span("model.attention"):
            for block in self.blocks:
                if return_weights:
                    e, w = block(
                        e, relation_biases, attend_masks, return_weights=True, packing=packing
                    )
                    weights_per_block.append(w)
                else:
                    e = block(e, relation_biases, attend_masks, packing=packing)
        e = self.final_norm(e)
        e = e.masked_fill(live_pad[..., None], 0.0)
        if return_weights:
            return e, weights_per_block
        return e

    def _relation_bias(
        self, src: np.ndarray, times: np.ndarray, pad: np.ndarray, attend_mask: np.ndarray
    ) -> np.ndarray:
        """The softmax-scaled relation matrix of one cut group's columns."""
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
            return scaled_relation_bias(relation, attend_mask)

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

        Returns (pos_scores (b, n), neg_scores (b, n, L)).  Each row
        runs on its columns from its own :func:`live_cut` on; the
        columns before it are head padding, so their targets are padding
        too and their scores come back as zeros, which the loss masks.
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
        packing = Packing(self._row_cuts(pad), src.shape[1])
        cand_ids = packing.pack(np.concatenate([targets[..., None], negatives], axis=-1))
        e, cand = self._embed_packed(packing, src, cand_ids)   # packed (T, d), (T, 1+L, d)
        enc = self._encode(e, src, times, pad, packing)        # packed (T, d)

        if self.config.use_taad:
            pieces = []
            for c, f, keys in zip(
                packing.split(cand), packing.split(enc), packing.per_group(pad)
            ):
                w = keys.shape[1]
                mask = step_causal_mask(w, w)[None, ...] | keys[:, None, None, :]
                pieces.append(self.decoder(c, f, attend_mask=mask))
            s = packing.join(pieces)                           # packed (T, 1+L, d)
        else:
            # Ablation "Remove TAAD": match encoder output directly (Eq. 17).
            s = enc.reshape(*enc.shape[:-1], 1, enc.shape[-1])
        scores = packing.unpack(preference_scores(s, cand))    # (b, n, 1+L)
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
        the *next* check-in after the full source sequence.  Each row
        runs from its own :func:`live_cut`; TAAD runs once per cut group.
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
        packing = Packing(self._row_cuts(pad), src.shape[1])
        # Candidates with rows in cut order, embedded with the tokens.
        e, cand = self._embed_packed(packing, src, packing.sort_rows(candidates))
        enc = packing.split(self._encode(e, src, times, pad, packing))
        scores = np.empty(candidates.shape, dtype=np.float32)
        for group, f, keys in zip(packing.groups, enc, packing.per_group(pad)):
            c = cand[group.rows]                               # (g, c, d)
            if self.config.use_taad:
                s = self.decoder(c, f, attend_mask=keys[:, None, None, :])
            else:
                s = f[:, -1:, :]                               # (g, 1, d)
            scores[group.rows] = preference_scores(s, c).data
        return packing.unsort_rows(scores)

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
