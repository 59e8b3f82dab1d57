"""FPMC-LR — Factorized Personalized Markov Chains with Localized
Regions (Cheng et al., IJCAI 2013).

Extends FPMC's tensor factorization of user-specific POI transitions
with a geography constraint: transition candidates (and the negatives
used for ranking updates) are restricted to a neighbourhood around the
user's current POI.

    score(u, i -> j) = <V_u^{U,L}, V_j^{L,U}> + <V_i^{L,L}, V_j^{L,L}>

trained with BPR-style SGD over observed transitions.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..core.config import TrainConfig
from ..data.sequences import SequenceExample
from ..data.types import CheckInDataset
from .base import SequentialRecommender, last_real_positions, register
from .bpr import training_transitions


@register("FPMC-LR")
class FPMCLR(SequentialRecommender):
    def __init__(
        self,
        dim: int = 32,
        lr: float = 0.05,
        reg: float = 1e-4,
        neighborhood: int = 50,
        epochs: Optional[int] = None,
        seed: int = 0,
        **_,
    ):
        self.dim = dim
        self.lr = lr
        self.reg = reg
        self.neighborhood = neighborhood
        self.epochs = epochs
        self.seed = seed
        self.user_index: Dict[int, int] = {}
        self.v_user: Optional[np.ndarray] = None    # user -> next-POI factors
        self.v_next_u: Optional[np.ndarray] = None
        self.v_prev: Optional[np.ndarray] = None    # prev-POI -> next-POI factors
        self.v_next_p: Optional[np.ndarray] = None
        self._pools: Optional[np.ndarray] = None    # localized negative pools

    def fit(
        self,
        dataset: CheckInDataset,
        examples: List[SequenceExample],
        config: Optional[TrainConfig] = None,
    ) -> None:
        config = config or TrainConfig()
        rng = np.random.default_rng(self.seed)
        transitions = training_transitions(examples)
        if len(transitions) == 0:
            raise ValueError("no training transitions")
        users = sorted(set(int(u) for u in transitions[:, 0]))
        self.user_index = {u: i for i, u in enumerate(users)}
        num_pois = dataset.num_pois
        k = min(self.neighborhood, num_pois - 1)

        # Localized regions: each POI's candidate neighbourhood from the
        # shared dataset index (canonical (distance, id) order; k is
        # clamped to num_pois - 1 above, so every row is exactly full).
        index = dataset.spatial_index()
        self._pools = np.zeros((num_pois + 1, k), dtype=np.int64)
        for poi in range(1, num_pois + 1):
            self._pools[poi] = index.query(poi, k)[0]

        scale = 1.0 / np.sqrt(self.dim)
        self.v_user = rng.normal(0, scale, (len(users), self.dim))
        self.v_next_u = rng.normal(0, scale, (num_pois + 1, self.dim))
        self.v_prev = rng.normal(0, scale, (num_pois + 1, self.dim))
        self.v_next_p = rng.normal(0, scale, (num_pois + 1, self.dim))

        u_idx = np.array([self.user_index[int(u)] for u in transitions[:, 0]])
        prev = transitions[:, 1]
        nxt = transitions[:, 2]
        epochs = self.epochs if self.epochs is not None else config.epochs
        for _ in range(epochs):
            order = rng.permutation(len(transitions))
            cols = rng.integers(0, k, size=len(transitions))
            for i in order:
                u, p, j = u_idx[i], prev[i], nxt[i]
                neg = self._pools[p, cols[i]]
                if neg == j:
                    continue
                x = (
                    self.v_user[u] @ (self.v_next_u[j] - self.v_next_u[neg])
                    + self.v_prev[p] @ (self.v_next_p[j] - self.v_next_p[neg])
                )
                g = 1.0 / (1.0 + np.exp(min(x, 60.0)))
                vu, vp = self.v_user[u], self.v_prev[p]
                dj_u, dn_u = self.v_next_u[j].copy(), self.v_next_u[neg].copy()
                dj_p, dn_p = self.v_next_p[j].copy(), self.v_next_p[neg].copy()
                self.v_user[u] += self.lr * (g * (dj_u - dn_u) - self.reg * vu)
                self.v_prev[p] += self.lr * (g * (dj_p - dn_p) - self.reg * vp)
                self.v_next_u[j] += self.lr * (g * vu - self.reg * dj_u)
                self.v_next_u[neg] += self.lr * (-g * vu - self.reg * dn_u)
                self.v_next_p[j] += self.lr * (g * vp - self.reg * dj_p)
                self.v_next_p[neg] += self.lr * (-g * vp - self.reg * dn_p)

    def score_candidates(self, src, times, candidates, users=None) -> np.ndarray:
        if self.v_user is None:
            raise RuntimeError("fit() must be called before scoring")
        src = np.asarray(src, dtype=np.int64)
        candidates = np.asarray(candidates, dtype=np.int64)
        last = last_real_positions(src)
        prev = src[np.arange(len(src)), last]
        scores = np.zeros(candidates.shape, dtype=np.float64)
        mean_user = self.v_user.mean(axis=0)
        for row in range(len(src)):
            user = None if users is None else int(users[row])
            vu = (
                self.v_user[self.user_index[user]]
                if user is not None and user in self.user_index
                else mean_user
            )
            cand = candidates[row]
            scores[row] = self.v_next_u[cand] @ vu + self.v_next_p[cand] @ self.v_prev[prev[row]]
        return scores
