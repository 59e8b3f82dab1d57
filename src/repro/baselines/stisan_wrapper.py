"""Registry wrapper exposing STiSAN through the common recommender
interface so the overall-performance benchmark treats it like any
baseline."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.config import STiSANConfig, TrainConfig
from ..core.stisan import STiSAN
from ..core.trainer import train_stisan
from ..data.sequences import SequenceExample
from ..data.types import CheckInDataset
from ..parallel import DEFAULT_GRAD_SHARDS, DataParallelTrainer
from .base import SequentialRecommender, register


@register("STiSAN")
class STiSANRecommender(SequentialRecommender):
    def __init__(
        self,
        num_pois: int,
        poi_coords: np.ndarray,
        config: Optional[STiSANConfig] = None,
        *,
        rng: np.random.Generator,
        **_,
    ):
        self.config = config or STiSANConfig.small()
        self.model = STiSAN(num_pois, poi_coords, self.config, rng=rng)

    def fit(
        self,
        dataset: CheckInDataset,
        examples: List[SequenceExample],
        config: Optional[TrainConfig] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 0,
        resume: bool = False,
        workers: int = 1,
        grad_shards: Optional[int] = None,
    ) -> None:
        if workers != 1 or grad_shards is not None:
            # The data-parallel trainer's sharded-loss arithmetic (and
            # its checkpoints) form their own bitwise family, so it is
            # only selected when explicitly requested.
            DataParallelTrainer(
                self.model,
                dataset,
                examples,
                config,
                workers=workers,
                grad_shards=(
                    DEFAULT_GRAD_SHARDS if grad_shards is None else grad_shards
                ),
                checkpoint_dir=checkpoint_dir,
                checkpoint_every=checkpoint_every,
                resume=resume,
            ).train()
            return
        train_stisan(
            self.model,
            dataset,
            examples,
            config,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            resume=resume,
        )

    def score_candidates(self, src, times, candidates, users=None) -> np.ndarray:
        return self.model.score_candidates(src, times, candidates)

    def use_serving_caches(self, caches) -> None:
        self.model.use_serving_caches(caches)
