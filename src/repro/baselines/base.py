"""Common interface for every recommender compared in Table III.

All models — classical (POP, BPR, FPMC-LR, PRME-G), recurrent
(GRU4Rec, STGN), convolutional (Caser), and attention-based (SASRec,
Bert4Rec, TiSASRec, GeoSAN, STAN, STiSAN) — expose:

- ``fit(dataset, examples, train_config)`` — train on windowed data;
- ``score_candidates(src, times, candidates, users=None)`` — score an
  explicit candidate slate given the source sequence,

which is exactly what :func:`repro.eval.protocol.evaluate` consumes, so
the overall-performance benchmark is one loop over a registry.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional

import numpy as np

from ..core.config import TrainConfig
from ..core.loss import weighted_bce_loss
from ..data.batching import BatchIterator
from ..data.negatives import NearestNegativeSampler, UniformNegativeSampler
from ..data.sequences import SequenceExample
from ..data.types import PAD_POI, CheckInDataset
from ..nn.module import Module
from ..nn.optim import FlatAdam


class SequentialRecommender(abc.ABC):
    """Abstract Top-K sequential POI recommender (Eq. 1)."""

    name: str = "recommender"

    @abc.abstractmethod
    def fit(
        self,
        dataset: CheckInDataset,
        examples: List[SequenceExample],
        config: Optional[TrainConfig] = None,
    ) -> None:
        """Train on the provided windowed examples."""

    @abc.abstractmethod
    def score_candidates(
        self,
        src: np.ndarray,
        times: np.ndarray,
        candidates: np.ndarray,
        users: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Score (b, c) candidate slates for the next check-in."""

    def recommend(
        self,
        src: np.ndarray,
        times: np.ndarray,
        candidates: np.ndarray,
        k: int = 10,
        users: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Ranked Top-K POI ids out of each candidate slate."""
        scores = self.score_candidates(src, times, candidates, users=users)
        order = np.argsort(-scores, axis=-1)[:, :k]
        return np.take_along_axis(np.asarray(candidates), order, axis=-1)


def last_real_positions(src: np.ndarray) -> np.ndarray:
    """Index of the last non-padding position per row (head padding)."""
    src = np.asarray(src)
    real = src != PAD_POI
    if not real.any(axis=-1).all():
        raise ValueError("a source sequence contains no real check-ins")
    return src.shape[-1] - 1 - np.argmax(real[..., ::-1], axis=-1)


class NeuralRecommender(SequentialRecommender, Module):
    """Shared training loop for the neural baselines.

    Subclasses implement ``forward_train`` (same contract as STiSAN)
    and set ``negative_style`` to "uniform" (classic sequential-rec
    training) or "nearest" (GeoSAN-style importance sampling).
    """

    negative_style: str = "uniform"

    def __init__(self):
        Module.__init__(self)

    def fit(
        self,
        dataset: CheckInDataset,
        examples: List[SequenceExample],
        config: Optional[TrainConfig] = None,
    ) -> None:
        config = config or TrainConfig()
        rng = np.random.default_rng(config.seed)
        if self.negative_style == "nearest":
            sampler = NearestNegativeSampler(
                dataset,
                num_negatives=config.num_negatives,
                pool_size=config.negative_pool,
                rng=rng,
            )
        else:
            sampler = UniformNegativeSampler(
                dataset, num_negatives=config.num_negatives, rng=rng
            )
        optimizer = FlatAdam(self.parameters(), lr=config.learning_rate)
        self.train()
        for epoch in range(config.epochs):
            iterator = BatchIterator(
                examples, batch_size=config.batch_size, sampler=sampler, rng=rng
            )
            epoch_loss, batches = 0.0, 0
            for batch in iterator:
                pos, neg = self.forward_train(
                    batch.src, batch.times, batch.tgt, batch.negatives,
                    users=batch.users,
                )
                mask = batch.target_mask & self.train_step_mask(batch.src)
                loss = weighted_bce_loss(
                    pos, neg, mask, temperature=config.temperature
                )
                optimizer.zero_grad()
                loss.backward()
                if config.grad_clip:
                    optimizer.clip_grad_norm(config.grad_clip)
                optimizer.step()
                epoch_loss += float(loss.data)
                batches += 1
            if config.verbose:
                print(f"[{self.name}] epoch {epoch + 1}: loss={epoch_loss / max(batches, 1):.4f}")
        self.eval()

    @abc.abstractmethod
    def forward_train(self, src, times, targets, negatives, users=None):
        """Return (pos_scores (b, n), neg_scores (b, n, L))."""

    def train_step_mask(self, src: np.ndarray) -> np.ndarray:
        """(b, n) bool — steps this model can actually score.

        Default: every step.  Models with a fixed Markov window (e.g.
        Caser) exclude the first few positions.
        """
        return np.ones(np.asarray(src).shape, dtype=bool)


_REGISTRY: Dict[str, type] = {}


def register(name: str):
    """Class decorator adding a recommender to the Table III registry."""

    def wrap(cls):
        cls.name = name
        _REGISTRY[name] = cls  # repro-lint: disable=REPRO-STATE -- filled by @register at import time, before any worker forks; never written after
        return cls

    return wrap


def registry() -> Dict[str, type]:
    """Name -> class for every registered recommender."""
    return dict(_REGISTRY)
