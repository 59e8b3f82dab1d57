"""Minibatch iteration over training windows."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

import numpy as np

from .negatives import NearestNegativeSampler
from .sequences import SequenceExample
from .types import PAD_POI


@dataclass
class Batch:
    """A stacked training minibatch.

    Attributes
    ----------
    users : (b,) user ids
    src : (b, n) source POI ids (0 = padding)
    times : (b, n) unix-second timestamps aligned with ``src``
    tgt : (b, n) target POI ids (0 = no target at that step)
    negatives : (b, n, L) negative POI ids, or None if no sampler given
    """

    users: np.ndarray
    src: np.ndarray
    times: np.ndarray
    tgt: np.ndarray
    negatives: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.users)

    @property
    def target_mask(self) -> np.ndarray:
        """(b, n) bool — True where a real target exists."""
        return self.tgt != PAD_POI

    @property
    def src_mask(self) -> np.ndarray:
        """(b, n) bool — True where the source position is padding."""
        return self.src == PAD_POI


class BatchIterator:
    """Shuffling minibatch iterator with optional negative sampling."""

    def __init__(
        self,
        examples: List[SequenceExample],
        batch_size: int = 32,
        sampler: Optional[NearestNegativeSampler] = None,
        *,
        rng: np.random.Generator,
        shuffle: bool = True,
    ):
        if not examples:
            raise ValueError("no training examples supplied")
        if batch_size < 1:
            raise ValueError("batch size must be positive")
        self.examples = examples
        self.batch_size = batch_size
        self.sampler = sampler
        self.rng = rng
        self.shuffle = shuffle

    def __len__(self) -> int:
        return (len(self.examples) + self.batch_size - 1) // self.batch_size

    def epoch_order(self) -> np.ndarray:
        """Draw this epoch's example order (one shuffle from ``rng``).

        Exposed so a checkpointing trainer can capture the order and
        resume mid-epoch via :meth:`iter_order` without perturbing the
        RNG stream relative to plain ``__iter__``.
        """
        order = np.arange(len(self.examples))
        if self.shuffle:
            self.rng.shuffle(order)
        return order

    def iter_order(self, order: np.ndarray, start_batch: int = 0) -> Iterator[Batch]:
        """Yield batches following a fixed ``order``, skipping the first
        ``start_batch`` batches (already processed before a crash)."""
        if start_batch < 0:
            raise ValueError("start_batch must be >= 0")
        for start in range(start_batch * self.batch_size, len(order), self.batch_size):
            chunk = [self.examples[i] for i in order[start:start + self.batch_size]]
            users = np.array([e.user for e in chunk], dtype=np.int64)
            src = np.stack([e.src_pois for e in chunk])
            times = np.stack([e.src_times for e in chunk])
            tgt = np.stack([e.tgt_pois for e in chunk])
            negatives = self.sampler.sample(tgt) if self.sampler is not None else None
            yield Batch(users=users, src=src, times=times, tgt=tgt, negatives=negatives)

    def __iter__(self) -> Iterator[Batch]:
        return self.iter_order(self.epoch_order())
