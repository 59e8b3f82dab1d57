"""The async serving tier: batching equivalence, shedding, supervision.

Three layers of coverage:

- **policy units** driven by :class:`ManualClock` — admission order,
  queue/batch-formation arithmetic and the exactly-once request
  contract — all virtual-time, no threads, fully deterministic;
- **integration** with a real worker pool over a tiny STiSAN service —
  admitted requests must match direct ``recommend`` bitwise, sheds and
  degradations must be tagged, the watchdog must restart hung/crashed
  workers with its requeue-exactly-once budget, shutdown must drain;
- **chaos legs** (hang + crash + delay at the ``REPRO_CHAOS_SEED``
  seeds) asserting the tier's one hard promise: every submitted
  request receives exactly one response — none lost, ever.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.core import RecommendationService, STiSANConfig
from repro.core.breaker import HALF_OPEN, OPEN, CircuitBreaker
from repro.core.stisan import STiSAN
from repro.faults import FaultConfig, FaultPlan, InjectedFault, fault_injection
from repro.serving import (
    DEGRADED,
    SERVED,
    SHED,
    TIMEOUT,
    AdmissionController,
    AdmissionDecision,
    BoundedRequestQueue,
    InferenceWorker,
    LoadGenConfig,
    ManualClock,
    ServingTier,
    TierConfig,
    TierRequest,
    TierResponse,
    run_load,
    zipf_schedule,
)
from repro.serving.queue import dispatch_ready

MAX_LEN = 10
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


def make_service(dataset, **kwargs):
    cfg = STiSANConfig.small(
        max_len=MAX_LEN, poi_dim=8, geo_dim=8, num_blocks=1, dropout=0.0
    )
    model = STiSAN(
        dataset.num_pois, dataset.poi_coords, cfg, rng=np.random.default_rng(0)
    )
    model.eval()
    kwargs.setdefault("num_candidates", 20)
    return RecommendationService(model, dataset, max_len=MAX_LEN, **kwargs)


def make_request(clock, rid=1, user=1, k=5, deadline_s=1.0, exclude=True):
    now = clock.now()
    return TierRequest(
        id=rid, user=user, k=k, exclude_visited=exclude,
        submitted_at=now, deadline_at=now + deadline_s,
    )


def as_tuples(recs):
    return [(r.poi, round(r.score, 5), r.degraded) for r in recs]


# ----------------------------------------------------------------------
# Policy units (virtual clock, no threads)
# ----------------------------------------------------------------------
class TestManualClock:
    def test_sleep_advances_virtual_time(self):
        clock = ManualClock()
        clock.sleep(0.5)
        clock.advance(0.25)
        assert clock.now() == pytest.approx(0.75)

    def test_time_only_moves_forward(self):
        with pytest.raises(ValueError):
            ManualClock().advance(-1.0)


class TestExactlyOnceContract:
    def test_second_resolve_loses(self):
        request = make_request(ManualClock())
        first = TierResponse(status=SERVED)
        assert request.resolve(first) is True
        assert request.resolve(TierResponse(status=TIMEOUT)) is False
        assert request.response is first
        assert request.wait(0.1) is first

    def test_concurrent_resolvers_exactly_one_wins(self):
        request = make_request(ManualClock())
        wins = []
        barrier = threading.Barrier(8)

        def racer(i):
            barrier.wait()
            if request.resolve(TierResponse(status=SERVED, reason=str(i))):
                wins.append(i)

        threads = [threading.Thread(target=racer, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError, match="unknown response status"):
            TierResponse(status="dropped")


class TestAdmissionPolicy:
    def test_reason_precedence(self):
        ctl = AdmissionController(capacity=4, shed_watermark=2)
        assert ctl.decide(0, closing=True).reason == "shutdown"
        assert ctl.decide(4, closing=False).reason == "queue_full"
        assert ctl.decide(2, closing=False).reason == "backpressure"
        assert ctl.decide(0, closing=False) is AdmissionDecision.ADMITTED

    def test_watermark_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(capacity=4, shed_watermark=5)
        with pytest.raises(ValueError):
            AdmissionController(capacity=0)


class TestQueuePolicy:
    def test_offer_refuses_at_capacity(self):
        clock = ManualClock()
        queue = BoundedRequestQueue(2, clock)
        assert queue.offer(make_request(clock, rid=1))
        assert queue.offer(make_request(clock, rid=2))
        assert not queue.offer(make_request(clock, rid=3))
        assert queue.depth() == 2 and queue.peak_depth == 2

    def test_requeue_goes_to_front_above_capacity(self):
        clock = ManualClock()
        queue = BoundedRequestQueue(2, clock)
        queue.offer(make_request(clock, rid=1))
        queue.offer(make_request(clock, rid=2))
        old = [make_request(clock, rid=3), make_request(clock, rid=4)]
        assert queue.requeue(old)  # admitted work is never shed retroactively
        batch = queue.next_batch(max_batch=4)
        assert [r.id for r in batch] == [3, 4, 1, 2]

    def test_full_batch_dispatches_without_waiting(self):
        clock = ManualClock()
        queue = BoundedRequestQueue(8, clock)
        for rid in range(5):
            queue.offer(make_request(clock, rid=rid))
        assert [r.id for r in queue.next_batch(max_batch=4)] == [0, 1, 2, 3]
        assert queue._in_flight == 1
        for rid in range(5, 8):
            queue.offer(make_request(clock, rid=rid))
        # Full again: it goes without waiting for the first batch.
        assert [r.id for r in queue.next_batch(max_batch=4)] == [4, 5, 6, 7]
        assert queue._in_flight == 2

    def test_dispatch_rule(self):
        # A full batch always goes; a partial one only while nothing
        # is in flight; an empty queue never dispatches.
        assert dispatch_ready(queued=4, max_batch=4, in_flight=3)
        assert dispatch_ready(queued=1, max_batch=4, in_flight=0)
        assert not dispatch_ready(queued=1, max_batch=4, in_flight=1)
        assert not dispatch_ready(queued=0, max_batch=4, in_flight=0)

    def test_partial_batch_dispatches_when_nothing_in_flight(self):
        clock = ManualClock()
        queue = BoundedRequestQueue(8, clock)
        queue.offer(make_request(clock, rid=1))
        # No timer: virtual time never moves, and the lone request
        # dispatches at once because the service is idle.
        assert [r.id for r in queue.next_batch(max_batch=4)] == [1]
        assert clock.now() == 0.0
        assert queue._in_flight == 1
        queue.batch_done()
        assert queue._in_flight == 0

    def test_partial_batch_waits_while_a_batch_is_in_flight(self):
        clock = ManualClock()
        queue = BoundedRequestQueue(8, clock)
        queue.offer(make_request(clock, rid=1))
        assert [r.id for r in queue.next_batch(max_batch=4)] == [1]
        queue.offer(make_request(clock, rid=2))
        queue.offer(make_request(clock, rid=3))
        got = []
        taker = threading.Thread(target=lambda: got.append(queue.next_batch(4)))
        taker.start()
        taker.join(0.2)
        assert taker.is_alive() and got == []  # held behind batch 1
        queue.offer(make_request(clock, rid=4))
        taker.join(0.2)
        assert taker.is_alive() and got == []  # still partial
        queue.batch_done()  # batch 1 finished: the next one goes whole
        taker.join(5.0)
        assert not taker.is_alive()
        assert [r.id for r in got[0]] == [2, 3, 4]
        assert queue._in_flight == 1

    def test_batch_done_without_a_batch_in_flight_raises(self):
        queue = BoundedRequestQueue(4, ManualClock())
        with pytest.raises(RuntimeError, match="no batch in flight"):
            queue.batch_done()

    def test_drain_expired_and_close(self):
        clock = ManualClock()
        queue = BoundedRequestQueue(8, clock)
        queue.offer(make_request(clock, rid=1, deadline_s=0.1))
        queue.offer(make_request(clock, rid=2, deadline_s=5.0))
        clock.advance(1.0)
        expired = queue.drain_expired(clock.now())
        assert [r.id for r in expired] == [1]
        assert queue.depth() == 1
        queue.close()
        assert not queue.offer(make_request(clock, rid=3))
        assert not queue.requeue([make_request(clock, rid=4)])
        # A closed queue still hands out what was already admitted...
        assert [r.id for r in queue.next_batch(4)] == [2]
        # ...and only then signals the workers to exit.
        assert queue.next_batch(4) is None

    def test_closed_empty_queue_returns_none(self):
        queue = BoundedRequestQueue(4, ManualClock())
        queue.close()
        assert queue.next_batch(4) is None


class TestTimeBasedBreaker:
    """The breaker recovers by request count, never by wall-clock time:
    exactly ``recovery_requests`` short-circuits move it to half-open."""

    def test_effective_state_mirrors_state_in_count_mode(self):
        breaker = CircuitBreaker(failure_threshold=1, recovery_requests=2)
        breaker.record_failure()
        assert breaker.state == OPEN

    def test_count_mode_unchanged_by_default(self):
        breaker = CircuitBreaker(failure_threshold=1, recovery_requests=2)
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow_request()
        assert breaker.state == OPEN
        assert not breaker.allow_request()
        assert breaker.state == HALF_OPEN
        assert breaker.allow_request()


class TestServingFaultSites:
    def test_crash_at_rate_one_raises(self):
        plan = FaultPlan(FaultConfig(worker_crash_rate=1.0, seed=0))
        with pytest.raises(InjectedFault, match="serving"):
            plan.on_worker_batch("w0g0")
        assert plan.counts().get(("serving", "crash")) == 1

    def test_hang_and_delay_return_durations_without_sleeping(self):
        plan = FaultPlan(
            FaultConfig(
                worker_hang_rate=1.0, worker_hang_s=0.75,
                dispatch_delay_rate=1.0, dispatch_delay_s=0.05, seed=0,
            )
        )
        # The plan only *schedules*; the tier executes via its clock.
        # Delays are drawn uniform in (0, dispatch_delay_s]; hangs are
        # the configured worst case exactly.
        assert 0.0 < plan.on_dispatch(batch_size=4) <= 0.05
        assert plan.on_worker_batch("w0g0") == pytest.approx(0.75)
        counts = plan.counts()
        assert counts.get(("serving", "delay")) == 1
        assert counts.get(("serving", "hang")) == 1

    def test_zero_rate_serving_site_never_draws(self):
        plan = FaultPlan(FaultConfig(seed=9))
        for _ in range(5):
            assert plan.on_dispatch(batch_size=8) == 0.0
            assert plan.on_worker_batch("w0g0") == 0.0
        fresh = FaultPlan(FaultConfig(seed=9))
        assert (
            plan._rngs["serving"].bit_generator.state
            == fresh._rngs["serving"].bit_generator.state
        )
        assert plan.log == []

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultConfig(worker_crash_rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(worker_hang_s=-1.0)


class _StubTier:
    """The minimal tier surface ``InferenceWorker._process`` touches."""

    def __init__(self, clock):
        self._clock = clock
        self._lock = threading.RLock()
        self.scored = []
        self.delays = []

    def _note_injected_delay(self, seconds):
        self.delays.append(seconds)

    def _score_batch(self, worker, batch):
        self.scored.append(list(batch))


class TestAbandonedWorkerDelayPath:
    def test_abandoned_during_delay_never_scores(self):
        # A worker the watchdog abandoned during an injected dispatch
        # delay must not score its (already requeued) batch: that would
        # double-score it and inflate requeue/attempt accounting.
        clock = ManualClock()
        tier = _StubTier(clock)
        worker = InferenceWorker(tier, slot=0, generation=0)
        with fault_injection(
            dispatch_delay_rate=1.0, dispatch_delay_s=0.01, seed=0
        ):
            worker.abandoned = True  # the watchdog got here first
            worker._process([make_request(clock)])
        assert tier.delays, "the delay site must have fired"
        assert tier.scored == []

    def test_delay_then_score_when_not_abandoned(self):
        clock = ManualClock()
        tier = _StubTier(clock)
        worker = InferenceWorker(tier, slot=0, generation=0)
        batch = [make_request(clock)]
        with fault_injection(
            dispatch_delay_rate=1.0, dispatch_delay_s=0.01, seed=0
        ):
            worker._process(batch)
        assert tier.scored == [batch]


class TestServiceBatchEdges:
    def test_empty_batch_returns_well_formed_and_counts(self, micro_dataset):
        service = make_service(micro_dataset)
        before = service.health.requests
        assert service.recommend_batch([]) == []
        assert service.health.requests == before + 1

    def test_all_degraded_batch_never_touches_model(self, micro_dataset):
        service = make_service(micro_dataset)
        users = micro_dataset.users()[:3]
        for _ in range(service.breaker.failure_threshold):
            service.breaker.record_failure()
        assert service.breaker.state == OPEN

        class Boom:
            def __getattr__(self, name):
                raise AssertionError("model touched while breaker open")

        model, service.model = service.model, Boom()
        try:
            rows = service.recommend_batch(users, k=5)
        finally:
            service.model = model
        assert len(rows) == len(users)
        assert all(rec.degraded for row in rows for rec in row)
        assert all(len(row) > 0 for row in rows)
        assert service.health.degraded_rows >= len(users)

    def test_health_renders_tier_fields_only_when_nonzero(self, micro_dataset):
        service = make_service(micro_dataset)
        assert "shed=" not in str(service.health)
        service.health.shed_requests = 3
        assert "shed=3" in str(service.health)


class TestZipfSchedule:
    def test_seeded_and_bounded(self):
        a = zipf_schedule(16, 200, exponent=1.3, seed=4)
        b = zipf_schedule(16, 200, exponent=1.3, seed=4)
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() < 16
        assert not np.array_equal(a, zipf_schedule(16, 200, exponent=1.3, seed=5))

    def test_head_is_hot(self):
        sched = zipf_schedule(32, 2000, exponent=1.3, seed=0)
        counts = np.bincount(sched, minlength=32)
        assert counts[0] > counts[16:].sum() / 16


# ----------------------------------------------------------------------
# Integration (real threads, tiny service)
# ----------------------------------------------------------------------
def warm_users(service, dataset, count=8, length=6, seed=1):
    rng = np.random.default_rng(seed)
    users = []
    for j in range(count):
        user = 50_000 + j
        t = 1.0e9
        for _ in range(length):
            service.check_in(user, int(rng.integers(1, dataset.num_pois + 1)), t)
            t += 3600.0
        users.append(user)
    return users


def quiet_config(**kwargs):
    """A tier config whose watchdog will not fire during the test."""
    kwargs.setdefault("num_workers", 1)
    kwargs.setdefault("max_batch", 8)
    kwargs.setdefault("deadline_s", 5.0)
    kwargs.setdefault("hang_timeout_s", 30.0)
    kwargs.setdefault("drain_timeout_s", 20.0)
    return TierConfig(**kwargs)


class TestTierServes:
    def test_admitted_requests_match_direct_recommend(self, micro_dataset):
        service = make_service(micro_dataset)
        users = warm_users(service, micro_dataset)
        # Duplicate users and ragged k exercise in-batch coalescing
        # (4 distinct users per 8-slot batch -> guaranteed duplicates).
        workload = [(users[i % 4], 3 + (i % 3) * 4) for i in range(24)]
        with ServingTier(service, quiet_config(num_workers=2)) as tier:
            # Holding the queue's (re-entrant) condition keeps every
            # worker out while the burst is enqueued, so it dispatches
            # as three full batches of 8 whatever the scheduling, and
            # each batch coalesces its 4 duplicate users.
            with tier.queue._cond:
                handles = [
                    tier.submit(user, k=k, exclude_visited=True)
                    for user, k in workload
                ]
            responses = [h.wait(30.0) for h in handles]
        direct = {
            (user, k): service.recommend(user, k=k, exclude_visited=True)
            for user, k in set(workload)
        }
        for (user, k), response in zip(workload, responses):
            assert response is not None and response.status == SERVED
            assert as_tuples(response.recommendations) == as_tuples(direct[(user, k)])
            assert response.worker.startswith("w")
            assert response.attempts == 1
        assert tier.verify_no_loss()
        assert tier.stats.batches == 3
        assert all(r.batch_size == 8 for r in responses)
        assert tier.stats.coalesced == 12

    def test_queue_wait_stops_at_dispatch(self, micro_dataset):
        # queue_wait_s ends when a worker takes the batch: an injected
        # dispatch stall (and scoring) is in the latency, not the wait.
        service = make_service(micro_dataset)
        users = warm_users(service, micro_dataset, count=1)
        with fault_injection(
            dispatch_delay_rate=1.0, dispatch_delay_s=0.1, seed=0
        ):
            with ServingTier(service, quiet_config()) as tier:
                response = tier.request(users[0], k=3)
        delay_s = tier.stats.injected_delay_s
        assert response is not None and response.status == SERVED
        assert response.latency_s >= delay_s > 0.0
        assert response.queue_wait_s < 0.05
        assert response.queue_wait_s <= response.latency_s - delay_s

    def test_unknown_user_raises_at_the_door(self, micro_dataset):
        service = make_service(micro_dataset)
        with ServingTier(service, quiet_config()) as tier:
            with pytest.raises(ValueError, match="no history"):
                tier.submit(999_999)
        with pytest.raises(RuntimeError, match="closed"):
            tier.submit(1)

    def test_shed_tagging_under_queue_pressure(self, micro_dataset):
        service = make_service(micro_dataset)
        users = warm_users(service, micro_dataset, count=4)
        # One worker hung on its first batch -> traffic piles into a
        # two-slot queue -> the overflow is shed with a tagged reason.
        cfg = quiet_config(max_batch=1, queue_depth=2)
        with fault_injection(
            worker_hang_rate=1.0, worker_hang_s=0.4, seed=0
        ):
            tier = ServingTier(service, cfg)
            try:
                handles = [tier.submit(users[i % 4], k=3) for i in range(8)]
            finally:
                tier.close(drain=False)
        responses = [h.wait(10.0) for h in handles]
        assert all(r is not None for r in responses)
        sheds = [r for r in responses if r.status == SHED]
        assert sheds, "queue pressure must shed"
        assert {r.reason for r in sheds} <= {"queue_full", "shutdown"}
        assert all(r.recommendations == [] for r in sheds)  # reject mode
        assert tier.verify_no_loss()
        assert service.health.shed_requests == len(sheds)

    def test_degrade_shed_mode_serves_fallback_slate(self, micro_dataset):
        service = make_service(micro_dataset)
        users = warm_users(service, micro_dataset, count=4)
        cfg = quiet_config(max_batch=1, queue_depth=1, shed_mode="degrade")
        with fault_injection(worker_hang_rate=1.0, worker_hang_s=0.4, seed=0):
            tier = ServingTier(service, cfg)
            try:
                handles = [tier.submit(users[i % 4], k=3) for i in range(6)]
            finally:
                tier.close(drain=False)
        responses = [h.wait(10.0) for h in handles]
        sheds = [r for r in responses if r is not None and r.status == SHED]
        assert sheds
        payloads = [r for r in sheds if r.recommendations]
        assert payloads, "degrade mode must serve the fallback slate"
        for response in payloads:
            assert all(rec.degraded for rec in response.recommendations)

    def test_backpressure_watermark(self, micro_dataset):
        service = make_service(micro_dataset)
        users = warm_users(service, micro_dataset, count=2)
        cfg = quiet_config(max_batch=1, queue_depth=8, shed_watermark=2)
        with fault_injection(worker_hang_rate=1.0, worker_hang_s=0.4, seed=0):
            tier = ServingTier(service, cfg)
            try:
                handles = [tier.submit(users[i % 2], k=3) for i in range(8)]
            finally:
                tier.close(drain=False)
        responses = [h.wait(10.0) for h in handles]
        reasons = {r.reason for r in responses if r and r.status == SHED}
        assert "backpressure" in reasons


class TestWorkConservingDispatch:
    def test_bursts_from_another_thread_keep_batches_large(self, micro_dataset):
        # A closed-window sender on its own thread (192 outstanding,
        # refilled 64 at a time) must not push the tier into scoring a
        # handful of requests per batch: the worker yields before it
        # forms a partial batch, so the sender can enqueue what is due.
        # Without the yield about one round in six settles at 4-15
        # requests per batch, so twelve rounds catch it nearly always.
        service = make_service(micro_dataset)
        users = warm_users(service, micro_dataset, count=16)
        window, refill, per_round = 192, 64, 64 * 20
        responses = []

        def sender():
            pending = []
            for i in range(per_round):
                if len(pending) >= window:
                    while len(pending) > window - refill:
                        responses.append(pending.pop(0).wait(30.0))
                pending.append(tier.submit(users[i % len(users)], k=5))
            responses.extend(h.wait(30.0) for h in pending)

        means = []
        cfg = quiet_config(num_workers=2, max_batch=64, queue_depth=256)
        with ServingTier(service, cfg) as tier:
            for _ in range(12):
                batches, requests = tier.stats.batches, tier.stats.batch_requests
                thread = threading.Thread(target=sender)
                thread.start()
                thread.join(60.0)
                assert not thread.is_alive()
                means.append(
                    (tier.stats.batch_requests - requests)
                    / (tier.stats.batches - batches)
                )
        assert len(responses) == 12 * per_round
        assert all(r is not None and r.status == SERVED for r in responses)
        assert min(means) > 32, f"mean batch per round: {means}"
        assert tier.verify_no_loss()


class TestShutdownAdmission:
    def test_queue_closed_race_sheds_as_shutdown(self, micro_dataset):
        # close() racing a submit: admission can read _closing just
        # before it flips, then offer() fails on the closed queue.  The
        # shed reason must say shutdown, not queue_full.
        service = make_service(micro_dataset)
        users = warm_users(service, micro_dataset, count=1)
        tier = ServingTier(service, quiet_config())
        try:
            tier.queue.close()  # the race window, frozen
            response = tier.request(users[0], k=3)
            assert response is not None and response.status == SHED
            assert response.reason == "shutdown"
        finally:
            tier.close(drain=False)
        assert tier.stats.shed_reasons.get("shutdown", 0) >= 1
        assert tier.verify_no_loss()


class TestLockWaitIsNotAHang:
    def test_worker_queued_on_service_lock_not_flagged_hung(self, micro_dataset):
        # A worker blocked on _service_lock behind another worker's
        # slow dispatch is queuing, not hanging: its heartbeat must
        # stay fresh so the watchdog never requeues its batch or
        # respawns its slot.
        service = make_service(micro_dataset)
        users = warm_users(service, micro_dataset, count=1)
        cfg = quiet_config(
            num_workers=1, hang_timeout_s=0.2, watchdog_interval_s=0.05,
        )
        tier = ServingTier(service, cfg)
        try:
            handle = tier.submit(users[0], k=3)
            # Simulate the rival worker's long dispatch: hold the
            # service lock across several hang-timeout windows while
            # the lone worker queues behind it.
            assert tier._service_lock.acquire(timeout=5.0)
            try:
                time.sleep(0.8)
            finally:
                tier._service_lock.release()
            response = handle.wait(10.0)
        finally:
            tier.close()
        assert response is not None and response.status == SERVED
        assert response.attempts == 1  # never requeued
        assert "hang" not in tier.stats.restarts
        assert tier.stats.requeued == 0
        assert tier.verify_no_loss()


class TestSupervision:
    def test_hung_worker_restarted_and_requests_requeued_once(self, micro_dataset):
        service = make_service(micro_dataset)
        users = warm_users(service, micro_dataset, count=3)
        cfg = TierConfig(
            num_workers=1, max_batch=8,
            deadline_s=30.0, hang_timeout_s=0.05, watchdog_interval_s=0.01,
            max_attempts=2,
        )
        # Every dispatch hangs: attempt 1 hangs -> watchdog requeues
        # (exactly once) -> attempt 2 hangs -> budget exhausted ->
        # degraded fallback, reason requeue_limit.  Deterministic.
        with fault_injection(worker_hang_rate=1.0, worker_hang_s=0.4, seed=0):
            tier = ServingTier(service, cfg)
            try:
                handles = [tier.submit(u, k=3) for u in users]
                responses = [h.wait(30.0) for h in handles]
            finally:
                tier.close(drain=False)
        for response in responses:
            assert response is not None
            assert response.status == DEGRADED
            assert response.reason == "requeue_limit"
            assert response.attempts == cfg.max_attempts
            assert response.recommendations, "fallback slate, not a drop"
            assert all(rec.degraded for rec in response.recommendations)
        assert tier.stats.requeued == len(users)  # exactly once each
        assert tier.stats.restarts.get("hang", 0) >= 2
        assert service.health.worker_restarts >= 2
        assert service.health.requeued_requests == len(users)
        # Replacement generations are deterministic and visible.
        worker = tier.supervisor.workers[0]
        assert worker.generation >= 2
        assert tier.verify_no_loss()

    def test_abandoned_hung_worker_frees_its_dispatch_slot(
        self, micro_dataset, monkeypatch
    ):
        # The hung worker sleeps for seconds, far past hang_timeout_s.
        # Abandoning it must free its in-flight slot: the successor
        # dispatches the requeued request at once (and, every batch
        # hanging, the second abandonment answers it requeue_limit)
        # instead of holding it behind the sleeper until it wakes.
        thread_errors = []
        monkeypatch.setattr(
            threading, "excepthook", lambda args: thread_errors.append(args)
        )
        service = make_service(micro_dataset)
        users = warm_users(service, micro_dataset, count=1)
        cfg = TierConfig(
            num_workers=1, max_batch=8, deadline_s=30.0,
            hang_timeout_s=0.05, watchdog_interval_s=0.01, max_attempts=2,
        )
        hang_s = 1.5
        with fault_injection(worker_hang_rate=1.0, worker_hang_s=hang_s, seed=0):
            tier = ServingTier(service, cfg)
            first = tier.supervisor.workers[0]
            try:
                response = tier.request(users[0], k=3)
                assert response is not None
                assert response.latency_s < hang_s / 3
                assert tier.supervisor.workers[0] is not first
                # The late risers wake and exit without giving their
                # slots back a second time.
                first.join(10.0)
                assert not first.alive and not first.holds_slot
                assert tier.queue._in_flight == 0
            finally:
                tier.close(drain=False)
        assert response.status == DEGRADED and response.reason == "requeue_limit"
        assert response.attempts == cfg.max_attempts
        assert tier.stats.restarts.get("hang", 0) == 2
        assert thread_errors == []
        assert tier.verify_no_loss()

    def test_crashed_worker_restarted_and_batch_recovered(self, micro_dataset):
        service = make_service(micro_dataset)
        users = warm_users(service, micro_dataset, count=3)
        cfg = TierConfig(
            num_workers=1, max_batch=8,
            deadline_s=30.0, hang_timeout_s=30.0, watchdog_interval_s=0.01,
            max_attempts=2,
        )
        with fault_injection(worker_crash_rate=1.0, seed=0):
            tier = ServingTier(service, cfg)
            try:
                handles = [tier.submit(u, k=3) for u in users]
                responses = [h.wait(30.0) for h in handles]
            finally:
                tier.close(drain=False)
        for response in responses:
            assert response is not None
            assert response.status == DEGRADED
            assert response.reason == "requeue_limit"
        assert tier.stats.restarts.get("crash", 0) >= 2
        assert tier.verify_no_loss()

    def test_deadline_timeout_is_answered(self, micro_dataset):
        service = make_service(micro_dataset)
        users = warm_users(service, micro_dataset, count=2)
        cfg = TierConfig(
            num_workers=1, max_batch=4,
            deadline_s=0.02, hang_timeout_s=30.0, watchdog_interval_s=0.01,
        )
        # Every dispatch stalls well past the deadline.
        with fault_injection(
            dispatch_delay_rate=1.0, dispatch_delay_s=0.1, seed=0
        ):
            tier = ServingTier(service, cfg)
            try:
                handles = [tier.submit(u, k=3) for u in users]
                responses = [h.wait(30.0) for h in handles]
            finally:
                tier.close()
        assert all(r is not None for r in responses)
        timeouts = [r for r in responses if r.status == TIMEOUT]
        assert timeouts, "stalled dispatch must time out, not hang"
        assert all(r.reason == "deadline" for r in timeouts)
        assert service.health.timeout_requests == len(timeouts)
        assert tier.verify_no_loss()


class TestShutdown:
    def test_close_drains_queue_before_exit(self, micro_dataset):
        service = make_service(micro_dataset)
        users = warm_users(service, micro_dataset, count=6)
        tier = ServingTier(service, quiet_config(max_batch=4))
        handles = [tier.submit(users[i % 6], k=3) for i in range(18)]
        tier.close(drain=True)
        responses = [h.wait(0.0) or h.response for h in handles]
        assert all(r is not None for r in responses)
        served = [r for r in responses if r.status == SERVED]
        assert len(served) == len(handles), "drain must finish queued work"
        assert tier.verify_no_loss()
        assert tier.workers_healthy()
        tier.close()  # idempotent

    def test_close_without_drain_sheds_queued_work(self, micro_dataset):
        service = make_service(micro_dataset)
        users = warm_users(service, micro_dataset, count=4)
        cfg = quiet_config(max_batch=1, queue_depth=16)
        with fault_injection(worker_hang_rate=1.0, worker_hang_s=0.4, seed=0):
            tier = ServingTier(service, cfg)
            handles = [tier.submit(users[i % 4], k=3) for i in range(8)]
            tier.close(drain=False)
        responses = [h.wait(10.0) for h in handles]
        assert all(r is not None for r in responses)
        assert any(r.status == SHED and r.reason == "shutdown" for r in responses)
        assert tier.verify_no_loss()


class TestChaos:
    """The acceptance-criteria legs: sustained chaos, zero loss."""

    @pytest.mark.parametrize("chaos_seed", [CHAOS_SEED, CHAOS_SEED + 1])
    def test_no_request_silently_dropped(self, micro_dataset, chaos_seed):
        service = make_service(micro_dataset)
        users = warm_users(service, micro_dataset, count=8)
        cfg = TierConfig(
            num_workers=2, max_batch=8,
            deadline_s=1.0, hang_timeout_s=0.1, watchdog_interval_s=0.02,
            queue_depth=64, shed_mode="degrade",
        )
        load = LoadGenConfig(clients=8, requests_per_client=10, seed=chaos_seed)
        tier = ServingTier(service, cfg)
        try:
            with fault_injection(
                dispatch_delay_rate=0.1, dispatch_delay_s=0.02,
                worker_crash_rate=0.05, worker_hang_rate=0.05,
                worker_hang_s=0.3, seed=chaos_seed,
            ):
                report = run_load(tier, users, load)
        finally:
            tier.close()
        assert report.lost == 0
        assert sum(report.by_status.values()) == load.total_requests
        assert tier.verify_no_loss()
        assert tier.workers_healthy()
        # Deadline bound for admitted traffic (generous slack: the
        # p99 promise is "bounded by the deadline", not a perf race).
        if report.admitted_latency_ms:
            assert report.admitted_latency_ms["p99"] <= 2.5 * cfg.deadline_s * 1e3

    def test_obs_counters_tell_the_story(self, micro_dataset):
        from repro import obs

        service = make_service(micro_dataset)
        users = warm_users(service, micro_dataset, count=4)
        obs.reset()
        with obs.observability():
            tier = ServingTier(service, quiet_config(num_workers=2))
            try:
                report = run_load(
                    tier, users, LoadGenConfig(clients=4, requests_per_client=5)
                )
            finally:
                tier.close()
        assert report.lost == 0
        submitted = obs.REGISTRY.counter("repro_tier_submitted_total").value
        assert submitted == 20
        served = obs.REGISTRY.counter(
            "repro_tier_responses_total", {"status": SERVED}
        ).value
        assert served == report.by_status[SERVED]
        assert obs.REGISTRY.counter("repro_tier_batches_total").value >= 1
        obs.reset()
