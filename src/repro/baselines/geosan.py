"""GeoSAN — Geography-Aware Sequential Recommendation (Lian et al.,
KDD 2020).

GeoSAN = quadkey-n-gram geography encoder ⊕ POI embedding, a vanilla
self-attention encoder, a target-aware attention decoder, and the
importance-weighted BCE loss over nearest-neighbour negatives.

STiSAN is literally GeoSAN plus TAPE and the relation-matrix bias, so
the cleanest faithful implementation is the STiSAN model with both of
those switched off (vanilla sinusoidal PE, no relation matrix).  That
also guarantees the Table III comparison isolates exactly the paper's
delta.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional

import numpy as np

from ..core.config import STiSANConfig, TrainConfig
from ..core.stisan import STiSAN
from ..core.trainer import train_stisan
from ..data.sequences import SequenceExample
from ..data.types import CheckInDataset
from .base import SequentialRecommender, register


@register("GeoSAN")
class GeoSAN(SequentialRecommender):
    def __init__(
        self,
        num_pois: int,
        poi_coords: np.ndarray,
        config: Optional[STiSANConfig] = None,
        *,
        rng: np.random.Generator,
        **_,
    ):
        base = config or STiSANConfig.small()
        self.config = replace(base, use_tape=False, use_relation=False)
        self.model = STiSAN(num_pois, poi_coords, self.config, rng=rng)

    def fit(
        self,
        dataset: CheckInDataset,
        examples: List[SequenceExample],
        config: Optional[TrainConfig] = None,
    ) -> None:
        train_stisan(self.model, dataset, examples, config)

    def score_candidates(self, src, times, candidates, users=None) -> np.ndarray:
        return self.model.score_candidates(src, times, candidates)

    def use_serving_caches(self, caches) -> None:
        self.model.use_serving_caches(caches)
