"""Negative sampling for training and candidate retrieval for evaluation.

Training (Section III-H): "for each target POI o_i, we retrieve the L
nearest POIs around it as negative samples", randomly picked "from the
target's nearest 2000 neighbours".

Evaluation (Section IV-C): "we retrieve the nearest 100 previously
unvisited POIs around the target as negative candidates" and rank the
target among the 101.

Pools are streamed: :class:`NearestNegativeSampler` builds each pool on
demand from the shared spatial index, one canonical k-NN query per
*unique* target in a batch, memoized in a bounded owner-tagged LRU.
Peak RSS stays flat in the catalogue size, which is what makes
million-POI catalogues trainable.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..geo.neighbors import pad_pool
from .types import PAD_POI, CheckInDataset


class NearestNegativeSampler:
    """Importance-sampled spatial negatives for the weighted BCE loss.

    Each target POI owns a pool of its ``pool_size`` nearest neighbours
    (canonical ``(distance, id)`` order); :meth:`sample` draws
    ``num_negatives`` uniform picks from the target's pool.

    When a catalogue cannot supply ``pool_size`` distinct neighbours
    the pool is right-padded by repeating the farthest neighbour
    (:func:`repro.geo.neighbors.pad_pool`) — duplicated probability
    mass lands on the easiest negative, never on the target.  By
    default ``pool_size`` is clamped to ``num_pois - 1`` so pools are
    exactly full (the historical contract); ``pad_to_pool_size=True``
    keeps the requested width and pads instead.
    """

    #: Pools are always built per target on demand (see module docstring).
    mode = "streaming"

    def __init__(
        self,
        dataset: CheckInDataset,
        num_negatives: int = 15,
        pool_size: int = 2000,
        rng: Optional[np.random.Generator] = None,
        cache_size: int = 8192,
        pad_to_pool_size: bool = False,
    ):
        if num_negatives < 1:
            raise ValueError("need at least one negative sample")
        self.num_negatives = num_negatives
        self.rng = rng or np.random.default_rng()
        num_pois = dataset.num_pois
        if num_pois < num_negatives + 1:
            raise ValueError(
                f"catalogue of {num_pois} POIs cannot supply {num_negatives} negatives"
            )
        self.index = dataset.spatial_index()
        if pad_to_pool_size:
            self.pool_size = pool_size
        else:
            self.pool_size = min(pool_size, num_pois - 1)

        from ..core.cache import LRUCache  # repro-lint: disable=REPRO-HOTIMPORT -- breaks the core<->data import cycle; runs once per sampler, not per batch

        self._pool_cache = LRUCache(cache_size, name="negative-pools")

    def pool_for(self, target: int) -> np.ndarray:
        """The target's neighbour pool (canonical order, fixed width).

        Answers from the LRU or runs one k-NN query; entries are
        owner-tagged by target POI so catalogue-slice invalidation can
        evict exactly the affected pools.  Treat the returned array as
        immutable.
        """
        pool = self._pool_cache.get(target)
        if pool is None:
            k = min(self.pool_size, len(self.index) - 1)
            ids, _ = self.index.query_canonical(target, k)
            pool = pad_pool(ids, self.pool_size)
            self._pool_cache.put(target, pool, owner=target)
        return pool

    def sample(self, targets: np.ndarray) -> np.ndarray:
        """Draw negatives for an array of target POI ids.

        ``targets`` of shape (...,); returns (..., L) int64.  Entries for
        padding targets (id 0) are filled with PAD_POI and must be
        masked by the caller.
        """
        targets = np.asarray(targets, dtype=np.int64)
        flat = targets.reshape(-1)
        out = np.zeros((flat.size, self.num_negatives), dtype=np.int64)
        real = flat != PAD_POI
        if real.any():
            # Column draws come first and depend only on the number of
            # real targets, so pool lookups can never perturb the RNG
            # stream.
            cols = self.rng.integers(
                0, self.pool_size, size=(int(real.sum()), self.num_negatives)
            )
            unique, inverse = np.unique(flat[real], return_inverse=True)
            table = np.stack([self.pool_for(int(t)) for t in unique])
            out[real] = table[inverse.reshape(-1, 1), cols]
        return out.reshape(*targets.shape, self.num_negatives)


class UniformNegativeSampler:
    """Classic uniform negative sampling over the whole catalogue.

    Used by the SASRec-style baselines, which pick one (or L) random
    unvisited POIs per step instead of spatial neighbours.
    """

    def __init__(
        self,
        dataset: CheckInDataset,
        num_negatives: int = 1,
        rng: Optional[np.random.Generator] = None,
    ):
        if num_negatives < 1:
            raise ValueError("need at least one negative sample")
        if dataset.num_pois < 2:
            raise ValueError("catalogue too small for negative sampling")
        self.num_pois = dataset.num_pois
        self.num_negatives = num_negatives
        self.rng = rng or np.random.default_rng()

    def sample(self, targets: np.ndarray) -> np.ndarray:
        targets = np.asarray(targets, dtype=np.int64)
        draws = self.rng.integers(
            1, self.num_pois + 1, size=(*targets.shape, self.num_negatives)
        )
        # Re-draw collisions with the positive target once; a residual
        # collision after that is harmless noise, as in common practice.
        collision = draws == targets[..., None]
        if collision.any():
            draws[collision] = self.rng.integers(1, self.num_pois + 1, size=int(collision.sum()))
        draws[targets == PAD_POI] = PAD_POI
        return draws


class EvalCandidateRetriever:
    """Builds the 101-POI ranking slate used by every evaluation run.

    The spatial index is the dataset-level shared handle, so training
    and evaluation setup build one index between them.
    """

    def __init__(self, dataset: CheckInDataset, num_candidates: int = 100):
        self.dataset = dataset
        self.num_candidates = num_candidates
        self.index = dataset.spatial_index()
        self._visited: Dict[int, set] = {
            u: set(map(int, s.pois)) for u, s in dataset.sequences.items()
        }

    def candidates(self, user: int, target: int) -> np.ndarray:
        """Return (1 + k,) ids: target first, then the k nearest
        previously-unvisited POIs (excluding the target).

        k = min(num_candidates, num_pois - 1).  On small catalogues a
        user may have visited too many POIs to fill the slate with
        unvisited ones; the shortfall is topped up with the nearest
        *visited* POIs so every slate in a dataset has equal length
        (harder negatives, never easier).
        """
        visited = set(self._visited.get(user, set()))
        visited.add(int(target))
        k = min(self.num_candidates, self.dataset.num_pois - 1)
        negatives = list(self.index.nearest_excluding(int(target), k, exclude=visited))
        if len(negatives) < k:
            chosen = set(negatives) | {int(target)}
            backfill = self.index.nearest_excluding(int(target), k, exclude=chosen)
            negatives.extend(int(p) for p in backfill[: k - len(negatives)])
        return np.concatenate([[int(target)], negatives]).astype(np.int64)
