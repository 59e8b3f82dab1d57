"""The serving tier: continuous batching + admission + supervision.

:class:`ServingTier` is the async front door above
:class:`~repro.core.service.RecommendationService`.  Callers submit
requests from any thread; the tier answers **exactly once** per
request — served, degraded, shed or timeout, never silence — no matter
which combination of overload, injected hangs, crashes and delays is
in play.  The moving parts:

- admission control (:mod:`repro.serving.admission`) sheds explicitly
  at the front door before work queues up;
- a bounded queue + work-conserving batcher
  (:mod:`repro.serving.queue`) dispatches a full batch at once and a
  partial one as soon as no other batch is in flight;
- a worker pool (:mod:`repro.serving.worker`) supervised by a
  heartbeat watchdog (:mod:`repro.serving.supervisor`) that restarts
  hung/crashed workers and requeues their work exactly once;
- scoring coalesces duplicate users inside a batch (one model row per
  distinct ``(user, exclude_visited)``) and retries transient dispatch
  failures with seeded jittered exponential backoff.

Threading model (the part worth reading twice): the underlying
service, its caches, breaker and the obs metric objects are
single-threaded by design, so the tier serializes *every* service call
behind ``_service_lock`` and all of its own accounting behind the
re-entrant ``_lock``.  The queue has its own condition, which is
always innermost: it is taken under ``_lock`` (a worker or the
watchdog releasing an in-flight slot) but never held while taking
another lock.  Lock order is ``_lock`` -> ``_service_lock`` or either
alone — never the reverse: recovery resolves fallback payloads
(service lock) while already holding the tier lock, so the service
lock is always the *inner* one, and no path takes ``_lock`` while
holding ``_service_lock``.  That single direction makes deadlock
impossible.  One core: this serialization costs nothing, because
throughput comes from *batching* (one model call amortized over up to
``max_batch`` requests), not thread parallelism — and the batcher is
work-conserving, so whatever arrives while one batch is scored becomes
the next batch, and a request that finds the service idle is scored
at once instead of waiting out a timer.

Every decision point — admit/shed, dispatch, timeout, retry, requeue,
restart, drain — increments a ``repro_tier_*`` counter and the heavier
ones open :mod:`repro.obs` spans, so a chaos run can be audited after
the fact from metrics alone.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core.service import RecommendationService
from ..obs import REGISTRY, span
from ..obs import state as _obs
from .admission import AdmissionController
from .clock import Clock, MonotonicClock
from .queue import BoundedRequestQueue
from .request import (
    DEGRADED,
    SERVED,
    SHED,
    TIMEOUT,
    TierRequest,
    TierResponse,
)
from .supervisor import WorkerSupervisor

__all__ = ["TierConfig", "ServingTier"]

_SHED_MODES = ("reject", "degrade")


@dataclass
class TierConfig:
    """Knobs for one :class:`ServingTier` (defaults favor a laptop
    demo: small batches, sub-second deadlines)."""

    #: The largest batch; a full one dispatches even while another
    #: batch is in flight, a partial one only when none is.
    max_batch: int = 32
    #: Bounded queue capacity — the hard admission limit.
    queue_depth: int = 256
    #: Soft depth limit; shed with reason ``backpressure`` above it
    #: (None disables; the hard ``queue_full`` bound always applies).
    shed_watermark: Optional[int] = None
    #: Default per-request deadline (seconds from submit).
    deadline_s: float = 0.5
    #: Worker pool size (supervision/isolation, not CPU parallelism).
    num_workers: int = 2
    #: A busy worker whose heartbeat is older than this is hung.
    hang_timeout_s: float = 0.25
    #: Watchdog tick interval.
    watchdog_interval_s: float = 0.02
    #: Total dispatch attempts per request (2 = requeue exactly once).
    max_attempts: int = 2
    #: Service-call retries inside one dispatch before the worker
    #: gives up and crashes the batch over to the recovery path.
    max_dispatch_retries: int = 2
    #: Base/backoff/jitter for those in-dispatch retries (seeded).
    retry_backoff_s: float = 0.005
    retry_backoff_factor: float = 2.0
    retry_jitter: float = 0.25
    #: ``reject`` answers sheds with an empty slate; ``degrade`` serves
    #: the distance/popularity fallback slate, tagged.
    shed_mode: str = "reject"
    #: Seed for the retry-jitter stream.
    seed: int = 0
    #: Default drain budget for :meth:`ServingTier.close`.
    drain_timeout_s: float = 10.0

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {self.num_workers}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.shed_mode not in _SHED_MODES:
            raise ValueError(
                f"shed_mode must be one of {_SHED_MODES}, got {self.shed_mode!r}"
            )
        for name in (
            "deadline_s", "hang_timeout_s",
            "watchdog_interval_s", "retry_backoff_s", "drain_timeout_s",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.max_dispatch_retries < 0:
            raise ValueError("max_dispatch_retries must be >= 0")
        if self.retry_backoff_factor < 1.0:
            raise ValueError("retry_backoff_factor must be >= 1.0")
        if not 0.0 <= self.retry_jitter <= 1.0:
            raise ValueError("retry_jitter must be in [0, 1]")


@dataclass
class TierStats:
    """Aggregate tier accounting (mutated under the tier lock)."""

    submitted: int = 0
    admitted: int = 0
    responded: int = 0
    by_status: Dict[str, int] = field(default_factory=dict)
    shed_reasons: Dict[str, int] = field(default_factory=dict)
    requeued: int = 0
    retries: int = 0
    restarts: Dict[str, int] = field(default_factory=dict)
    late_results: int = 0
    batches: int = 0
    batch_requests: int = 0
    coalesced: int = 0
    injected_delay_s: float = 0.0


class ServingTier:
    """Overload-safe async request tier (see module docstring)."""

    def __init__(
        self,
        service: RecommendationService,
        config: Optional[TierConfig] = None,
        clock: Optional[Clock] = None,
    ):
        self.service = service
        self.config = config or TierConfig()
        self._clock = clock or MonotonicClock()
        #: Re-entrant: _finish may run under the drain condition (same
        #: lock) and the supervisor nests recover() inside tick state.
        self._lock = threading.RLock()
        self._drain_cond = threading.Condition(self._lock)
        self._service_lock = threading.Lock()
        self._rng = np.random.default_rng(self.config.seed)
        self._ids = itertools.count(1)
        self._closing = False
        self._stopped = False
        self._outstanding: Dict[int, TierRequest] = {}
        self.stats = TierStats()
        self.queue = BoundedRequestQueue(self.config.queue_depth, self._clock)
        self.admission = AdmissionController(
            capacity=self.config.queue_depth,
            shed_watermark=self.config.shed_watermark,
        )
        self.supervisor = WorkerSupervisor(self, self.config.num_workers)
        self.supervisor.start()

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def submit(
        self,
        user: int,
        k: int = 10,
        exclude_visited: bool = True,
        deadline_s: Optional[float] = None,
    ) -> TierRequest:
        """Enqueue one request; returns immediately with its handle.

        A shed request comes back already resolved (status ``shed``).
        Unknown/empty-history users raise ``ValueError`` up front, like
        the bare service — that is a caller bug, not overload.
        """
        if self._stopped:
            raise RuntimeError("serving tier is closed")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        # Session existence is validated at the door so a bad user id
        # costs an exception here, not a degraded batch downstream.
        with self._service_lock:
            self.service._require_session(user)
        now = self._clock.now()
        budget = self.config.deadline_s if deadline_s is None else deadline_s
        if budget <= 0:
            raise ValueError(f"deadline_s must be > 0, got {budget}")
        with self._lock:
            request = TierRequest(
                id=next(self._ids),
                user=user,
                k=k,
                exclude_visited=exclude_visited,
                submitted_at=now,
                deadline_at=now + budget,
            )
            self.stats.submitted += 1
            self._outstanding[request.id] = request
            if _obs._enabled:
                REGISTRY.counter("repro_tier_submitted_total").inc()
        decision = self.admission.decide(depth=self.queue.depth(), closing=self._closing)
        if decision.admit and self.queue.offer(request):
            with self._lock:
                self.stats.admitted += 1
                if _obs._enabled:
                    REGISTRY.counter("repro_tier_admitted_total").inc()
                    REGISTRY.gauge("repro_tier_queue_depth").set(self.queue.depth())
            return request
        # Shed: either the policy said no or the queue filled/closed
        # between the decision and the offer (the queue is the
        # authority).  A close() racing this submit closes the queue,
        # not fills it — report that as shutdown, not queue_full.
        if decision.reason:
            reason = decision.reason
        elif self._closing or self.queue.closed:
            reason = "shutdown"
        else:
            reason = "queue_full"
        self._finish_shed(request, reason)
        return request

    def request(
        self,
        user: int,
        k: int = 10,
        exclude_visited: bool = True,
        deadline_s: Optional[float] = None,
        wait_timeout_s: Optional[float] = None,
    ) -> Optional[TierResponse]:
        """Submit and block for the answer (the closed-loop client)."""
        handle = self.submit(user, k, exclude_visited, deadline_s)
        if wait_timeout_s is None:
            # The tier guarantees resolution; the generous cap is a
            # liveness backstop so a tier *bug* fails a test instead of
            # hanging it.
            wait_timeout_s = 10.0 * self.config.deadline_s + 30.0
        return handle.wait(wait_timeout_s)

    def check_in(self, user: int, poi: int, timestamp: float) -> None:
        """Record a check-in through the tier's service lock."""
        with self._service_lock:
            self.service.check_in(user, poi, timestamp)

    # ------------------------------------------------------------------
    # Scoring (called from worker threads)
    # ------------------------------------------------------------------
    def _score_batch(self, worker, batch: List[TierRequest]) -> None:
        """Deadline triage, coalesce, one model call per flag group."""
        now = self._clock.now()
        ready: List[TierRequest] = []
        for request in batch:
            if request.done:
                continue
            if request.expired(now):
                self._finish_timeout(request)
            else:
                ready.append(request)
        if not ready:
            return
        with self._lock:
            self.stats.batches += 1
            self.stats.batch_requests += len(ready)
            if _obs._enabled:
                REGISTRY.counter("repro_tier_batches_total").inc()
        with span("tier.execute"):
            for flag in (True, False):
                group = [r for r in ready if r.exclude_visited is flag]
                if group:
                    self._score_group(worker, group, flag, len(ready))

    def _score_group(
        self, worker, group: List[TierRequest], exclude_visited: bool,
        batch_size: int,
    ) -> None:
        # Coalesce duplicate users: one model row serves every caller
        # asking about the same user (exact — per-request k slices a
        # prefix of the shared top-k_max ranking).
        users: List[int] = []
        row_of: Dict[int, int] = {}
        for request in group:
            if request.user not in row_of:
                row_of[request.user] = len(users)
                users.append(request.user)
        kmax = max(r.k for r in group)
        coalesced = len(group) - len(users)
        if coalesced:
            with self._lock:
                self.stats.coalesced += coalesced
                if _obs._enabled:
                    REGISTRY.counter("repro_tier_coalesced_total").inc(coalesced)
        rows = self._call_service(users, kmax, exclude_visited, worker)
        for request in group:
            recs = rows[row_of[request.user]][: request.k]
            status = DEGRADED if recs and all(r.degraded for r in recs) else SERVED
            self._finish(
                request,
                TierResponse(
                    status=status,
                    recommendations=list(recs),
                    reason="service_degraded" if status == DEGRADED else "",
                    queue_wait_s=max(0.0, request.dispatched_at - request.enqueued_at),
                    batch_size=batch_size,
                    attempts=request.attempts,
                    worker=worker.name,
                ),
            )

    def _acquire_service_lock(self, worker=None) -> None:
        """Take the service lock, refreshing ``worker``'s heartbeat
        while queued behind another worker's dispatch.

        Lock-wait is queuing, not hanging: a worker blocked here behind
        a slow max_batch dispatch is alive, so its heartbeat must not
        go stale or the watchdog would abandon it, requeue its batch
        and double-score every slow batch under sustained load.
        """
        if worker is None:
            self._service_lock.acquire()
            return
        tick = self.config.hang_timeout_s / 4.0
        while not self._service_lock.acquire(timeout=tick):
            with self._lock:
                worker.heartbeat = self._clock.now()

    def _call_service(self, users, kmax, exclude_visited, worker=None):
        """One batched model call, with seeded retry-with-backoff.

        Exhausting the retry budget re-raises: the worker "crashes" and
        the supervisor's requeue-exactly-once path takes over, so a
        persistently failing dispatch degrades rather than loops.
        """
        attempt = 0
        while True:
            try:
                self._acquire_service_lock(worker)
                try:
                    return self.service.recommend_batch(
                        users, k=kmax, exclude_visited=exclude_visited
                    )
                finally:
                    self._service_lock.release()
            except Exception:
                if attempt >= self.config.max_dispatch_retries:
                    raise
                with self._lock:
                    self.stats.retries += 1
                    if _obs._enabled:
                        REGISTRY.counter("repro_tier_retries_total").inc()
                    jitter = 1.0 + self.config.retry_jitter * float(
                        self._rng.random()
                    )
                backoff = (
                    self.config.retry_backoff_s
                    * self.config.retry_backoff_factor**attempt
                    * jitter
                )
                attempt += 1
                self._clock.sleep(backoff)

    # ------------------------------------------------------------------
    # Resolution paths (exactly-once accounting funnel)
    # ------------------------------------------------------------------
    def _finish(self, request: TierRequest, response: TierResponse) -> bool:
        """The single funnel every response goes through."""
        with self._lock:
            response.latency_s = max(
                0.0, self._clock.now() - request.submitted_at
            )
            if not request.resolve(response):
                self.stats.late_results += 1
                if _obs._enabled:
                    REGISTRY.counter("repro_tier_late_results_total").inc()
                return False
            self._outstanding.pop(request.id, None)
            self.stats.responded += 1
            self.stats.by_status[response.status] = (
                self.stats.by_status.get(response.status, 0) + 1
            )
            if response.status == SHED:
                self.service.health.shed_requests += 1
                self.stats.shed_reasons[response.reason] = (
                    self.stats.shed_reasons.get(response.reason, 0) + 1
                )
            elif response.status == TIMEOUT:
                self.service.health.timeout_requests += 1
            if _obs._enabled:
                REGISTRY.counter(
                    "repro_tier_responses_total", {"status": response.status}
                ).inc()
                if response.status == SHED:
                    REGISTRY.counter(
                        "repro_tier_shed_total", {"reason": response.reason}
                    ).inc()
                elif response.status == TIMEOUT:
                    REGISTRY.counter("repro_tier_timeout_total").inc()
            if self._closing and not self._outstanding:
                self._drain_cond.notify_all()
            return True

    def _shed_payload(self, request: TierRequest):
        """What a shed/requeue-exhausted caller receives."""
        if self.config.shed_mode != "degrade":
            return []
        with self._service_lock:
            session = self.service._sessions.get(request.user)
            if session is None or len(session) == 0:
                return []
            return self.service._fallback_recommendations(
                session, request.k, request.exclude_visited
            )

    def _finish_shed(self, request: TierRequest, reason: str) -> None:
        self._finish(
            request,
            TierResponse(
                status=SHED,
                recommendations=self._shed_payload(request),
                reason=reason,
                attempts=request.attempts,
            ),
        )

    def _finish_timeout(self, request: TierRequest) -> None:
        self._finish(
            request,
            TierResponse(
                status=TIMEOUT, reason="deadline", attempts=request.attempts
            ),
        )

    def _finish_requeue_limit(self, request: TierRequest) -> None:
        """Requeue budget exhausted: degraded fallback, never a drop."""
        with self._service_lock:
            session = self.service._sessions.get(request.user)
            recs = (
                self.service._fallback_recommendations(
                    session, request.k, request.exclude_visited
                )
                if session is not None and len(session) > 0
                else []
            )
        self._finish(
            request,
            TierResponse(
                status=DEGRADED,
                recommendations=recs,
                reason="requeue_limit",
                attempts=request.attempts,
            ),
        )

    # ------------------------------------------------------------------
    # Supervision hooks
    # ------------------------------------------------------------------
    def _on_worker_crash(self, worker, batch: List[TierRequest], exc) -> None:
        with self._lock:
            worker.abandoned = True
        self._note_restart("crash", worker)
        self.supervisor.recover(batch)
        self.supervisor.respawn(worker.slot)

    def _on_worker_exit(self, worker) -> None:
        """Clean exit (queue closed) — nothing to recover."""

    def _note_restart(self, kind: str, worker) -> None:
        with self._lock:
            self.stats.restarts[kind] = self.stats.restarts.get(kind, 0) + 1
            self.service.health.worker_restarts += 1
            if _obs._enabled:
                REGISTRY.counter(
                    "repro_tier_worker_restarts_total", {"kind": kind}
                ).inc()

    def _note_requeued(self, requests: List[TierRequest]) -> None:
        with self._lock:
            self.stats.requeued += len(requests)
            self.service.health.requeued_requests += len(requests)
            if _obs._enabled:
                REGISTRY.counter("repro_tier_requeued_total").inc(len(requests))

    def _note_injected_delay(self, seconds: float) -> None:
        with self._lock:
            self.stats.injected_delay_s += seconds

    # ------------------------------------------------------------------
    # Introspection / shutdown
    # ------------------------------------------------------------------
    def outstanding(self) -> int:
        with self._lock:
            return len(self._outstanding)

    def verify_no_loss(self) -> bool:
        """Exactly-once audit: every submit got exactly one response."""
        with self._lock:
            return (
                self.stats.responded == self.stats.submitted
                and not self._outstanding
            )

    def workers_healthy(self) -> bool:
        """Every pool slot holds a non-abandoned worker — alive while
        the tier runs, cleanly exited once it has closed."""
        with self._lock:
            done = self._closing or self._stopped
            return all(
                not w.abandoned and (w.alive or done)
                for w in self.supervisor.workers
            )

    def snapshot(self) -> Dict[str, object]:
        """A JSON-friendly view of the tier's accounting."""
        with self._lock:
            return {
                "submitted": self.stats.submitted,
                "admitted": self.stats.admitted,
                "responded": self.stats.responded,
                "outstanding": len(self._outstanding),
                "by_status": dict(self.stats.by_status),
                "shed_reasons": dict(self.stats.shed_reasons),
                "requeued": self.stats.requeued,
                "retries": self.stats.retries,
                "restarts": dict(self.stats.restarts),
                "late_results": self.stats.late_results,
                "batches": self.stats.batches,
                "batch_requests": self.stats.batch_requests,
                "coalesced": self.stats.coalesced,
                "queue_depth": self.queue.depth(),
                "queue_peak_depth": self.queue.peak_depth,
                "workers": [
                    {
                        "name": w.name,
                        "slot": w.slot,
                        "generation": w.generation,
                        "alive": w.alive,
                        "batches_done": w.batches_done,
                    }
                    for w in self.supervisor.workers
                ],
            }

    def close(
        self, drain: bool = True, timeout_s: Optional[float] = None
    ) -> None:
        """Graceful shutdown: stop admitting, drain, stop the pool.

        With ``drain`` (the default) the queue is worked down until
        empty or the drain budget expires; anything still unresolved
        after that — and anything queued with ``drain=False`` — is
        answered ``shed``/``shutdown``.  No request is ever dropped by
        shutdown.  Idempotent.
        """
        with self._lock:
            if self._stopped:
                return
            self._closing = True
        with span("tier.drain"):
            if drain:
                budget = (
                    self.config.drain_timeout_s if timeout_s is None else timeout_s
                )
                deadline = self._clock.now() + budget
                with self._drain_cond:
                    while self._outstanding and self._clock.now() < deadline:
                        self._drain_cond.wait(0.05)
            self.queue.close()
            for request in self.queue.drain_all():
                self._finish_shed(request, "shutdown")
            self.supervisor.stop()
            # Stragglers: in-flight work whose worker died with the
            # queue closed, or drain-budget leftovers.
            with self._lock:
                leftovers = list(self._outstanding.values())
            for request in leftovers:
                self._finish_shed(request, "shutdown")
            with self._lock:
                self._stopped = True

    def __enter__(self) -> "ServingTier":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)
