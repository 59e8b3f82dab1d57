"""Online recommendation service — the deployment-facing API.

Wraps a trained recommender, the POI catalogue and the candidate
retriever behind a per-user session interface: append live check-ins,
ask for Top-K next-POI suggestions, and persist/restore the whole
service.  This is the "end-to-end deployment" the paper positions
STiSAN as (Section I), packaged the way a downstream service would
consume it.

Two serving paths share every piece of query preparation:

- :meth:`RecommendationService.recommend` scores one user per model
  call — the reference path;
- :meth:`RecommendationService.recommend_batch` pads B live sessions
  into a single ``(B, n)`` forward pass under ``no_grad`` and is
  **bitwise identical** to looping ``recommend`` (the property-based
  equivalence suite in ``tests/test_service_batching.py`` enforces it).

A :class:`~repro.core.cache.ServingCaches` bundle (on by default)
memoizes candidate slates and per-sequence relation matrices;
``check_in`` invalidates the user's session-derived entries, and slate
keys additionally include the session length so a stale slate is
unrepresentable even if the cache is never invalidated.

Both paths are instrumented with :mod:`repro.obs` spans (slate build,
batch preparation, model forward, ranking) and request/padding-waste
counters.  With observability disabled (the default) each stage pays a
single no-op context-manager call, and outputs are bitwise identical
either way — ``tests/test_obs_properties.py`` enforces both claims.

**Degradation-aware serving.**  The model call sits behind a
:class:`~repro.core.breaker.CircuitBreaker` and a finite-score guard:
a request whose scores come back NaN/Inf (or whose model call raises)
falls back to a distance + popularity ranking computed straight from
the KD-tree index — no caches, no model — and every returned
:class:`Recommendation` is tagged ``degraded=True``.  In
``recommend_batch`` failures are isolated per row: a poisoned batch is
retried row by row and only the bad rows degrade.  After
``failure_threshold`` consecutive model failures the breaker opens and
requests short-circuit to the fallback until a half-open probe
succeeds.  A request is never dropped and never raises because the
model misbehaved — the chaos suite in
``tests/test_service_degradation.py`` drives this under injected op-,
cache- and NaN-faults.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..data.sequences import pad_head
from ..data.types import PAD_POI, CheckInDataset
from ..geo.haversine import haversine
from ..nn.quantize import quantize_for_serving
from ..nn.tensor import no_grad
from ..obs import REGISTRY, span
from ..obs import state as _obs
from .breaker import CircuitBreaker
from .cache import ServingCaches


@dataclass
class UserSession:
    """Mutable live history for one user."""

    user: int
    pois: List[int] = field(default_factory=list)
    times: List[float] = field(default_factory=list)

    def append(self, poi: int, timestamp: float) -> None:
        timestamp = float(timestamp)
        if not math.isfinite(timestamp):
            raise ValueError(
                f"non-finite timestamp {timestamp!r} for user {self.user}; "
                "check-in times must be real unix seconds"
            )
        try:
            poi_id = operator.index(poi)
        except TypeError:
            fractional = float(poi)
            if not fractional.is_integer():
                raise ValueError(
                    f"POI id {poi!r} is not an integer; refusing to truncate "
                    "it to a different POI"
                ) from None
            poi_id = int(fractional)
        if self.times and timestamp < self.times[-1]:
            raise ValueError(
                f"out-of-order check-in for user {self.user}: "
                f"{timestamp} < {self.times[-1]}"
            )
        if poi_id == PAD_POI:
            raise ValueError("POI id 0 is reserved for padding")
        self.pois.append(poi_id)
        self.times.append(timestamp)

    def __len__(self) -> int:
        return len(self.pois)


@dataclass
class ServiceHealth:
    """Always-on degradation counters for one service instance
    (mirrored into the global registry when observability is on).

    The last four fields are written by the async serving tier
    (:mod:`repro.serving`) wrapping this service, so one health object
    tells the whole overload story: requests that reached the model,
    rows that degraded, and traffic the tier shed, timed out, requeued
    or lost workers over.
    """

    requests: int = 0
    degraded_rows: int = 0
    model_failures: int = 0
    short_circuits: int = 0
    # --- written by the serving tier (zero for a bare service) ---
    shed_requests: int = 0
    timeout_requests: int = 0
    requeued_requests: int = 0
    worker_restarts: int = 0

    def __str__(self) -> str:
        out = (
            f"requests={self.requests} degraded_rows={self.degraded_rows} "
            f"model_failures={self.model_failures} "
            f"short_circuits={self.short_circuits}"
        )
        if self.shed_requests or self.timeout_requests or self.requeued_requests \
                or self.worker_restarts:
            out += (
                f" shed={self.shed_requests} timeouts={self.timeout_requests} "
                f"requeued={self.requeued_requests} "
                f"worker_restarts={self.worker_restarts}"
            )
        return out


@dataclass
class Recommendation:
    """One scored suggestion."""

    poi: int
    score: float
    distance_km: float      # from the user's current POI
    degraded: bool = False  # True when served by the fallback ranker


class RecommendationService:
    """Top-K next-POI service over a trained model.

    Parameters
    ----------
    model : anything implementing ``score_candidates(src, times, cands)``
        (STiSAN or any registered baseline).
    dataset : the catalogue the model was trained on.  Seeds sessions
        with each user's training history.
    max_len : model window length n; histories are trimmed/padded to it.
    num_candidates : slate size retrieved around the anchor POI.
    caches : a :class:`ServingCaches` bundle to use; a fresh default
        bundle is created when None and ``enable_caches`` is True.
    enable_caches : set False to serve fully uncached (every query
        recomputes slates and relation matrices).
    breaker : the circuit breaker guarding the model call; a default
        one (5 consecutive failures to open, 20 requests to half-open)
        is created when None.
    quantized : serve from an inference-only quantized copy of the
        model (int8 embeddings, float16 linear weights — see
        :mod:`repro.nn.quantize`).  The original model is untouched;
        the degradation path is unchanged (a quantized-model failure
        falls back exactly like a float32 one).
    """

    def __init__(
        self,
        model,
        dataset: CheckInDataset,
        max_len: int = 100,
        num_candidates: int = 100,
        caches: Optional[ServingCaches] = None,
        enable_caches: bool = True,
        breaker: Optional[CircuitBreaker] = None,
        quantized: bool = False,
    ):
        if max_len < 2:
            raise ValueError("max_len must be >= 2")
        if num_candidates < 1:
            raise ValueError(
                f"num_candidates must be >= 1, got {num_candidates}"
            )
        if dataset.num_pois < 2:
            raise ValueError(
                f"dataset {dataset.name!r} has {dataset.num_pois} POI(s); "
                "serving needs at least 2 (one anchor plus one candidate)"
            )
        if quantized:
            model = quantize_for_serving(model)
        self.model = model
        self.quantized = quantized
        self.dataset = dataset
        self.max_len = max_len
        self.num_candidates = min(num_candidates, dataset.num_pois - 1)
        self.caches = (caches or ServingCaches()) if enable_caches else None
        self.breaker = breaker or CircuitBreaker()
        self.health = ServiceHealth()
        attach = getattr(model, "use_serving_caches", None)
        if callable(attach):
            attach(self.caches)
        # Dataset-level shared spatial index: the same handle training
        # and evaluation use, so serving never builds a duplicate.
        self._index = dataset.spatial_index()
        # Catalogue-wide visit counts: the popularity tie-break of the
        # degraded fallback ranking (static, like the coordinates).
        self._popularity = np.zeros(dataset.num_pois + 1, dtype=np.int64)
        for seq in dataset.sequences.values():
            np.add.at(self._popularity, np.asarray(seq.pois, dtype=np.int64), 1)
        self._sessions: Dict[int, UserSession] = {}
        for user in dataset.users():
            seq = dataset.sequences[user]
            self._sessions[user] = UserSession(
                user=user, pois=list(map(int, seq.pois)), times=list(map(float, seq.times))
            )

    # ------------------------------------------------------------------
    def session(self, user: int) -> UserSession:
        """The user's live session (created empty for unknown users)."""
        if user not in self._sessions:
            self._sessions[user] = UserSession(user=user)
        return self._sessions[user]

    def check_in(self, user: int, poi: int, timestamp: float) -> None:
        """Record a live check-in for ``user`` and invalidate the user's
        session-derived cache entries (slates and relation matrices)."""
        if not 1 <= poi <= self.dataset.num_pois:
            raise ValueError(f"unknown POI id {poi}")
        self.session(user).append(poi, timestamp)
        if _obs._enabled:
            REGISTRY.counter("repro_checkins_total").inc()
        if self.caches is not None:
            self.caches.invalidate_user(user)

    # ------------------------------------------------------------------
    # Query preparation (shared by both serving paths)
    # ------------------------------------------------------------------
    def _require_session(self, user: int) -> UserSession:
        session = self._sessions.get(user)
        if session is None or len(session) == 0:
            raise ValueError(f"user {user} has no history; record a check-in first")
        return session

    def _candidate_slate(self, session: UserSession, exclude_visited: bool) -> np.ndarray:
        anchor = session.pois[-1]
        # The session length in the key makes a stale hit impossible:
        # any append changes the key even if invalidation never ran.
        key = (session.user, anchor, self.num_candidates, bool(exclude_visited), len(session))
        if self.caches is not None:
            cached = self.caches.slates.get(key)
            if cached is not None:
                return cached
        exclude = set(session.pois) if exclude_visited else {anchor}
        slate = self._index.nearest_excluding(anchor, self.num_candidates, exclude=exclude)
        if len(slate) == 0:
            # Degenerate catalogue: fall back to everything but the anchor.
            slate = np.array(
                [p for p in range(1, self.dataset.num_pois + 1) if p != anchor],
                dtype=np.int64,
            )
        if self.caches is not None:
            self.caches.slates.put(key, slate, owner=session.user)
        return slate

    def _resolve_slate(
        self,
        session: UserSession,
        exclude_visited: bool,
        candidates: Optional[Sequence[int]],
    ) -> np.ndarray:
        if candidates is not None:
            return np.asarray(list(candidates), dtype=np.int64)
        return self._candidate_slate(session, exclude_visited)

    def _query_arrays(self, session: UserSession) -> tuple:
        src = pad_head(np.asarray(session.pois[-self.max_len:], dtype=np.int64),
                       self.max_len, PAD_POI)
        first_time = session.times[max(0, len(session) - self.max_len)]
        times = pad_head(np.asarray(session.times[-self.max_len:], dtype=np.float64),
                         self.max_len, first_time)
        return src, times

    def _score(
        self,
        src: np.ndarray,
        times: np.ndarray,
        slates: np.ndarray,
        users: Sequence[int],
    ) -> np.ndarray:
        """One ``(B, n)`` model call; rows tagged with their owners so
        cache entries written inside the model stay invalidatable."""
        with no_grad():
            if self.caches is not None:
                with self.caches.rows(users):
                    return self.model.score_candidates(src, times, slates)
            return self.model.score_candidates(src, times, slates)

    def _package(
        self, session: UserSession, slate: np.ndarray, scores: np.ndarray, k: int
    ) -> List[Recommendation]:
        order = np.argsort(-scores)[:k]
        cur_lat, cur_lon = self.dataset.poi_coords[session.pois[-1]]
        out = []
        for idx in order:
            poi = int(slate[idx])
            lat, lon = self.dataset.poi_coords[poi]
            out.append(
                Recommendation(
                    poi=poi,
                    score=float(scores[idx]),
                    distance_km=float(haversine(cur_lat, cur_lon, lat, lon)),
                )
            )
        return out

    # ------------------------------------------------------------------
    # Degradation path
    # ------------------------------------------------------------------
    def _note_degraded(self, rows: int) -> None:
        self.health.degraded_rows += rows
        if _obs._enabled:
            REGISTRY.counter("repro_degraded_requests_total").inc(rows)

    def _note_model_failure(self) -> None:
        self.health.model_failures += 1
        if _obs._enabled:
            REGISTRY.counter("repro_model_failures_total").inc()

    def _note_short_circuit(self) -> None:
        self.health.short_circuits += 1
        if _obs._enabled:
            REGISTRY.counter("repro_breaker_short_circuits_total").inc()

    def _fallback_recommendations(
        self,
        session: UserSession,
        k: int,
        exclude_visited: bool,
        candidates: Optional[Sequence[int]] = None,
    ) -> List[Recommendation]:
        """Model-free ranking: nearest first, popularity as tie-break.

        Recomputes the slate directly from the KD-tree index (bypassing
        the caches — a corrupted cache entry can be the very reason we
        are here) unless the caller supplied an explicit slate, which is
        sanitized against the catalogue range.  Scores are negated
        distances so "higher is better" still holds downstream.
        """
        anchor = session.pois[-1]
        if candidates is not None:
            slate = np.asarray(list(candidates), dtype=np.int64)
            slate = slate[(slate >= 1) & (slate <= self.dataset.num_pois)]
        else:
            exclude = set(session.pois) if exclude_visited else {anchor}
            slate = self._index.nearest_excluding(
                anchor, self.num_candidates, exclude=exclude
            )
        if len(slate) == 0:
            slate = np.array(
                [p for p in range(1, self.dataset.num_pois + 1) if p != anchor],
                dtype=np.int64,
            )
        cur_lat, cur_lon = self.dataset.poi_coords[anchor]
        coords = self.dataset.poi_coords[slate]
        distances = haversine(cur_lat, cur_lon, coords[:, 0], coords[:, 1])
        order = np.lexsort((-self._popularity[slate], distances))[:k]
        return [
            Recommendation(
                poi=int(slate[i]),
                score=float(-distances[i]),
                distance_km=float(distances[i]),
                degraded=True,
            )
            for i in order
        ]

    # ------------------------------------------------------------------
    # Serving paths
    # ------------------------------------------------------------------
    def recommend(
        self,
        user: int,
        k: int = 10,
        exclude_visited: bool = True,
        candidates: Optional[Sequence[int]] = None,
    ) -> List[Recommendation]:
        """Top-K suggestions for the user's next check-in.

        Candidates default to the nearest POIs around the user's
        current location (mirroring the evaluation protocol); pass an
        explicit list to re-rank an external slate instead.

        Never raises because the *model* misbehaved: NaN/Inf scores or
        a model exception degrade the request to the distance/popularity
        fallback (results tagged ``degraded=True``).  Exactly
        ``recommend_batch([user], ...)[0]``, traced and counted as its
        own ``recommend`` path.
        """
        with span("service.recommend"):
            if _obs._enabled:
                REGISTRY.counter("repro_requests_total", {"path": "recommend"}).inc()
                REGISTRY.counter("repro_queries_total", {"path": "recommend"}).inc()
            rows = None if candidates is None else [candidates]
            return self._recommend_rows([user], k, exclude_visited, rows)[0]

    def recommend_batch(
        self,
        users: Sequence[int],
        k: int = 10,
        exclude_visited: bool = True,
        candidates: Optional[Sequence[Optional[Sequence[int]]]] = None,
    ) -> List[List[Recommendation]]:
        """Top-K suggestions for several users in one model call.

        Sessions are padded to the model window and ragged candidate
        slates to a common width (by repeating a slate's last id —
        candidate scores are row-independent, so the fillers never
        perturb real scores and are sliced off before ranking).  The
        result is exactly ``[recommend(u, ...) for u in users]``,
        bitwise, at a fraction of the per-query overhead.

        ``candidates`` is an optional per-user list aligned with
        ``users``; None entries fall back to the retrieved slate.

        Failures are isolated per row: if the batched model call raises
        or returns NaN/Inf for some rows, those rows (and only those)
        are retried individually and, failing that, served by the
        degraded fallback — one poisoned session never takes down its
        batch-mates.
        """
        users = list(users)
        if candidates is not None and len(candidates) != len(users):
            raise ValueError(
                f"candidates must align with users: {len(candidates)} != {len(users)}"
            )
        with span("service.recommend_batch"):
            if _obs._enabled:
                REGISTRY.counter("repro_requests_total", {"path": "recommend_batch"}).inc()
                REGISTRY.counter("repro_queries_total", {"path": "recommend_batch"}).inc(
                    len(users)
                )
            return self._recommend_rows(users, k, exclude_visited, candidates)

    def _recommend_rows(
        self,
        users: List[int],
        k: int,
        exclude_visited: bool,
        candidates: Optional[Sequence[Optional[Sequence[int]]]],
    ) -> List[List[Recommendation]]:
        """The body both serving paths share, inside the caller's span."""
        self.health.requests += 1
        if not users:
            # The serving tier's dynamic batcher can legitimately
            # dispatch an empty batch (every member expired or was
            # shed between formation and execution).  Well-formed
            # answer, model untouched, health already advanced.
            return []
        sessions = [self._require_session(u) for u in users]
        with span("service.slate"):
            slates = [
                self._resolve_slate(
                    session, exclude_visited, None if candidates is None else candidates[i]
                )
                for i, session in enumerate(sessions)
            ]
        results: List[List[Recommendation]] = [[] for _ in users]
        live = [i for i, slate in enumerate(slates) if slate.size > 0]
        if not live:
            return results

        def row_candidates(i: int) -> Optional[Sequence[int]]:
            return None if candidates is None else candidates[i]

        if not self.breaker.allow_request():
            self._note_short_circuit()
            self._note_degraded(len(live))
            with span("service.rank"):
                for i in live:
                    results[i] = self._fallback_recommendations(
                        sessions[i], k, exclude_visited, row_candidates(i)
                    )
            return results

        with span("service.prepare"):
            width = max(len(slates[i]) for i in live)
            batch_slates = np.stack([
                np.concatenate([
                    slates[i],
                    np.full(width - len(slates[i]), slates[i][-1], dtype=np.int64),
                ])
                for i in live
            ])
            prepared = [self._query_arrays(sessions[i]) for i in live]
            src = np.stack([p[0] for p in prepared])
            times = np.stack([p[1] for p in prepared])
        if _obs._enabled:
            # Padding waste of the ragged-slate stack: filler slots
            # scored but sliced off before ranking.
            REGISTRY.counter("repro_batch_slate_slots_total").inc(width * len(live))
            REGISTRY.counter("repro_batch_slate_pad_slots_total").inc(
                sum(width - len(slates[i]) for i in live)
            )
        batch_scores = None
        try:
            with span("service.model_forward"):
                batch_scores = self._score(
                    src, times, batch_slates, [users[i] for i in live]
                )
        except Exception:
            self._note_model_failure()
        row_scores: Dict[int, np.ndarray] = {}
        failed_rows: List[int] = []
        if batch_scores is not None:
            for row, i in enumerate(live):
                scores = batch_scores[row, : len(slates[i])]
                if np.all(np.isfinite(scores)):
                    row_scores[i] = scores
                else:
                    failed_rows.append(i)
        elif len(live) > 1:
            # The whole call failed; retry each row alone so one
            # poisoned session cannot sink the rest of the batch.  A
            # lone row has nothing to isolate: it degrades directly.
            for row, i in enumerate(live):
                try:
                    scores = self._score(
                        src[row : row + 1],
                        times[row : row + 1],
                        batch_slates[row : row + 1],
                        [users[i]],
                    )[0, : len(slates[i])]
                except Exception:
                    failed_rows.append(i)
                    continue
                if np.all(np.isfinite(scores)):
                    row_scores[i] = scores
                else:
                    failed_rows.append(i)
        if row_scores:
            self.breaker.record_success()
        else:
            self.breaker.record_failure()
        if failed_rows and batch_scores is not None:
            self._note_model_failure()
        with span("service.rank"):
            for i in live:
                if i in row_scores:
                    results[i] = self._package(
                        sessions[i], slates[i], row_scores[i], k
                    )
                else:
                    self._note_degraded(1)
                    results[i] = self._fallback_recommendations(
                        sessions[i], k, exclude_visited, row_candidates(i)
                    )
        return results
