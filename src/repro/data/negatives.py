"""Negative sampling for training and candidate retrieval for evaluation.

Training (Section III-H): "for each target POI o_i, we retrieve the L
nearest POIs around it as negative samples", randomly picked "from the
target's nearest 2000 neighbours".

Evaluation (Section IV-C): "we retrieve the nearest 100 previously
unvisited POIs around the target as negative candidates" and rank the
target among the 101.

Pools are streamed: :class:`NearestNegativeSampler` builds each pool on
demand from the dataset's shared spatial index, one canonical k-NN
query per *unique* target in a batch, memoized in the index's bounded
owner-tagged LRU (:meth:`repro.geo.neighbors.PoiIndex.pool`), so every
sampler over a dataset reuses the pools earlier ones built.  Peak RSS
stays flat in the catalogue size, which is what makes million-POI
catalogues trainable.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .types import PAD_POI, CheckInDataset


class NearestNegativeSampler:
    """Importance-sampled spatial negatives for the weighted BCE loss.

    Each target POI owns a pool of its ``pool_size`` nearest neighbours
    (canonical ``(distance, id)`` order); :meth:`sample` draws
    ``num_negatives`` uniform picks from the target's pool.
    ``pool_size`` is clamped to ``num_pois - 1``, so on a small
    catalogue every pool is exactly the whole rest of the catalogue.

    Pools live in the dataset's shared index, keyed by that width.  The
    cache takes no lock: samplers over one dataset must not run from
    concurrent threads.  Forked data-parallel workers get copies.
    """

    #: Pools are always built per target on demand (see module docstring).
    mode = "streaming"

    def __init__(
        self,
        dataset: CheckInDataset,
        num_negatives: int = 15,
        pool_size: int = 2000,
        *,
        rng: np.random.Generator,
    ):
        if num_negatives < 1:
            raise ValueError("need at least one negative sample")
        self.num_negatives = num_negatives
        self.rng = rng
        num_pois = dataset.num_pois
        if num_pois < num_negatives + 1:
            raise ValueError(
                f"catalogue of {num_pois} POIs cannot supply {num_negatives} negatives"
            )
        self.index = dataset.spatial_index()
        self.pool_size = min(pool_size, num_pois - 1)

    def pool_for(self, target: int) -> np.ndarray:
        """The target's ``pool_size`` nearest neighbours (canonical order).

        Reads the index's shared pool LRU, which runs one k-NN query on
        a miss.  Treat the returned array as immutable.
        """
        return self.index.pool(target, self.pool_size)

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
        *,
        rng: np.random.Generator,
    ):
        if num_negatives < 1:
            raise ValueError("need at least one negative sample")
        if dataset.num_pois < 2:
            raise ValueError("catalogue too small for negative sampling")
        self.num_pois = dataset.num_pois
        self.num_negatives = num_negatives
        self.rng = rng

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

    def candidates(self, user, target) -> np.ndarray:
        """Return (1 + k,) ids: target first, then the k nearest
        previously-unvisited POIs (excluding the target).

        k = min(num_candidates, num_pois - 1).  On small catalogues a
        user may have visited too many POIs to fill the slate with
        unvisited ones; the shortfall is topped up with the nearest
        *visited* POIs so every slate in a dataset has equal length
        (harder negatives, never easier).

        Batched form: aligned sequences ``user`` and ``target`` return a
        (B, 1 + k) array, each row equal to its scalar call, from one
        k-NN search plus one backfill search over the short rows.
        """
        single = np.ndim(target) == 0
        users = [user] if single else list(user)
        targets = [int(target)] if single else [int(t) for t in target]
        if len(users) != len(targets):
            raise ValueError(
                f"users and targets must align: {len(users)} != {len(targets)}"
            )
        k = min(self.num_candidates, self.dataset.num_pois - 1)
        slates = np.empty((len(targets), 1 + k), dtype=np.int64)
        slates[:, 0] = targets
        if not targets:
            return slates
        excludes = [self._visited.get(u, set()) | {t} for u, t in zip(users, targets)]
        rows = self.index.nearest_excluding(targets, k, exclude=excludes)
        short = [b for b, row in enumerate(rows) if len(row) < k]
        if short:
            backfill = self.index.nearest_excluding(
                [targets[b] for b in short], k,
                exclude=[set(rows[b].tolist()) | {targets[b]} for b in short],
            )
            for b, extra in zip(short, backfill):
                rows[b] = np.concatenate([rows[b], extra[: k - len(rows[b])]])
        slates[:, 1:] = rows
        return slates[0] if single else slates
