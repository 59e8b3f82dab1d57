"""Degradation-aware serving: NaN guards, per-row isolation, the
circuit breaker, and the seeded chaos suite.

The chaos invariants: under injected cache and op faults the service
never raises and never returns an empty slate; pure cache *evictions*
are bitwise invisible (a forced miss just recomputes); and the
degradation counters reconcile with the injection log — no faults, no
degraded rows.
"""

import os

import numpy as np
import pytest

from repro import obs
from repro.core import (
    CircuitBreaker,
    RecommendationService,
    STiSANConfig,
    UserSession,
)
from repro.core.breaker import CLOSED, HALF_OPEN, OPEN
from repro.core.stisan import STiSAN
from repro.faults import fault_injection

MAX_LEN = 10

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


class ScriptedModel:
    """A stand-in model whose failure mode is programmable per call."""

    def __init__(self, mode="ok"):
        self.mode = mode
        self.calls = 0

    def score_candidates(self, src, times, candidates, users=None):
        self.calls += 1
        scores = -np.arange(candidates.shape[1], dtype=np.float32)[None, :].repeat(
            candidates.shape[0], axis=0
        )
        if self.mode == "raise":
            raise RuntimeError("model exploded")
        if self.mode == "nan":
            return np.full_like(scores, np.nan)
        if self.mode == "raise_batch_nan_first_row":
            if candidates.shape[0] > 1:
                raise RuntimeError("batch poisoned")
            # Per-row retry path: src rows arrive one at a time here.
            if self._first_row_src is not None and np.array_equal(
                src[0], self._first_row_src
            ):
                return np.full_like(scores, np.nan)
        return scores

    _first_row_src = None


def make_service(dataset, model=None, **kwargs):
    if model is None:
        cfg = STiSANConfig.small(
            max_len=MAX_LEN, poi_dim=8, geo_dim=8, num_blocks=1, dropout=0.0
        )
        model = STiSAN(dataset.num_pois, dataset.poi_coords, cfg,
                       rng=np.random.default_rng(0))
        model.eval()
    kwargs.setdefault("num_candidates", 20)
    return RecommendationService(model, dataset, max_len=MAX_LEN, **kwargs)


class TestSessionValidation:
    def test_nan_timestamp_rejected(self):
        session = UserSession(user=1)
        with pytest.raises(ValueError, match="non-finite timestamp"):
            session.append(2, float("nan"))

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf")])
    def test_infinite_timestamp_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite timestamp"):
            UserSession(user=1).append(2, bad)

    def test_fractional_poi_rejected(self):
        with pytest.raises(ValueError, match="not an integer"):
            UserSession(user=1).append(12.7, 100.0)

    def test_integral_float_and_numpy_int_accepted(self):
        session = UserSession(user=1)
        session.append(12.0, 100.0)
        session.append(np.int64(13), 200.0)
        assert session.pois == [12, 13]
        assert all(isinstance(p, int) for p in session.pois)

    def test_existing_guards_still_hold(self):
        session = UserSession(user=1)
        session.append(2, 100.0)
        with pytest.raises(ValueError, match="out-of-order"):
            session.append(3, 50.0)
        with pytest.raises(ValueError, match="reserved for padding"):
            session.append(0, 200.0)


class TestServiceValidation:
    def test_non_positive_num_candidates_rejected(self, micro_dataset):
        for bad in (0, -5):
            with pytest.raises(ValueError, match="num_candidates must be >= 1"):
                make_service(micro_dataset, ScriptedModel(), num_candidates=bad)

    def test_tiny_catalogue_rejected(self, micro_dataset):
        from dataclasses import replace

        tiny = replace(
            micro_dataset,
            poi_coords=micro_dataset.poi_coords[:2],
            sequences={},
        )
        with pytest.raises(ValueError, match="at least 2"):
            RecommendationService(ScriptedModel(), tiny)

    def test_clamp_to_catalogue_still_works(self, micro_dataset):
        service = make_service(
            micro_dataset, ScriptedModel(), num_candidates=10_000
        )
        assert service.num_candidates == micro_dataset.num_pois - 1


class TestDegradedFallback:
    def test_nan_scores_fall_back_to_distance_ranking(self, micro_dataset):
        service = make_service(micro_dataset, ScriptedModel(mode="nan"))
        user = micro_dataset.users()[0]
        recs = service.recommend(user, k=5)
        assert len(recs) == 5
        assert all(r.degraded for r in recs)
        distances = [r.distance_km for r in recs]
        assert distances == sorted(distances)  # nearest-first
        assert [r.score for r in recs] == [-d for d in distances]
        assert service.health.degraded_rows == 1
        assert service.health.model_failures == 1

    def test_model_exception_degrades_instead_of_raising(self, micro_dataset):
        service = make_service(micro_dataset, ScriptedModel(mode="raise"))
        recs = service.recommend(micro_dataset.users()[0], k=5)
        assert len(recs) == 5 and all(r.degraded for r in recs)

    def test_healthy_requests_not_degraded(self, micro_dataset):
        service = make_service(micro_dataset, ScriptedModel())
        recs = service.recommend(micro_dataset.users()[0], k=5)
        assert not any(r.degraded for r in recs)
        assert service.health.degraded_rows == 0

    def test_degraded_counter_mirrors_registry(self, micro_dataset):
        obs.reset()
        with obs.observability():
            service = make_service(micro_dataset, ScriptedModel(mode="nan"))
            service.recommend(micro_dataset.users()[0], k=5)
            counted = obs.REGISTRY.counter("repro_degraded_requests_total").value
        assert counted == service.health.degraded_rows == 1


class TestPerRowIsolation:
    def test_poisoned_row_does_not_sink_batch(self, micro_dataset):
        users = micro_dataset.users()[:4]
        model = ScriptedModel(mode="raise_batch_nan_first_row")
        service = make_service(micro_dataset, model)
        # Mark the first user's padded source row as the poisoned one.
        src, _ = service._query_arrays(service.session(users[0]))
        model._first_row_src = src

        healthy = make_service(micro_dataset, ScriptedModel())
        expected = healthy.recommend_batch(users, k=5)

        results = service.recommend_batch(users, k=5)
        assert all(r.degraded for r in results[0])
        for got, want in zip(results[1:], expected[1:]):
            assert [(r.poi, r.score) for r in got] == [
                (r.poi, r.score) for r in want
            ]
        assert service.health.degraded_rows == 1

    def test_all_rows_degrade_when_every_row_fails(self, micro_dataset):
        users = micro_dataset.users()[:3]
        service = make_service(micro_dataset, ScriptedModel(mode="raise"))
        results = service.recommend_batch(users, k=5)
        assert all(len(rows) == 5 for rows in results)
        assert all(r.degraded for rows in results for r in rows)
        assert service.health.degraded_rows == 3


class TestCircuitBreaker:
    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError, match="recovery_requests"):
            CircuitBreaker(recovery_requests=0)

    def test_lifecycle(self):
        breaker = CircuitBreaker(failure_threshold=2, recovery_requests=3)
        assert breaker.state == CLOSED
        assert breaker.allow_request()
        breaker.record_failure()
        assert breaker.state == CLOSED  # one failure is not enough
        breaker.record_failure()
        assert breaker.state == OPEN
        # Short-circuit phase: recovery countdown.
        assert not breaker.allow_request()
        assert not breaker.allow_request()
        assert not breaker.allow_request()
        assert breaker.state == HALF_OPEN
        assert breaker.allow_request()  # the probe
        breaker.record_failure()
        assert breaker.state == OPEN  # failed probe re-opens
        for _ in range(3):
            breaker.allow_request()
        assert breaker.allow_request()
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_breaker_short_circuits_model_entirely(self, micro_dataset):
        model = ScriptedModel(mode="raise")
        service = make_service(
            micro_dataset, model,
            breaker=CircuitBreaker(failure_threshold=2, recovery_requests=100),
        )
        users = micro_dataset.users()[:1]
        service.recommend(users[0], k=3)
        service.recommend(users[0], k=3)
        assert service.breaker.state == OPEN
        calls_when_tripped = model.calls
        recs = service.recommend(users[0], k=3)
        assert model.calls == calls_when_tripped  # model never touched
        assert all(r.degraded for r in recs)
        assert service.health.short_circuits == 1

    def test_half_open_probe_recovers_service(self, micro_dataset):
        model = ScriptedModel(mode="raise")
        service = make_service(
            micro_dataset, model,
            breaker=CircuitBreaker(failure_threshold=1, recovery_requests=2),
        )
        user = micro_dataset.users()[0]
        service.recommend(user, k=3)
        assert service.breaker.state == OPEN
        service.recommend(user, k=3)
        service.recommend(user, k=3)
        assert service.breaker.state == HALF_OPEN
        model.mode = "ok"  # the model heals
        recs = service.recommend(user, k=3)  # the probe
        assert service.breaker.state == CLOSED
        assert not any(r.degraded for r in recs)


class TestExplicitSlateValidation:
    """A client's bad explicit slate is the client's error: it raises
    before any model call and never counts against the breaker."""

    def test_bad_slate_raises_and_never_opens_the_breaker(self, micro_dataset):
        service = make_service(micro_dataset)
        bad_user, healthy = micro_dataset.users()[:2]
        bad_slate = [1, 2, micro_dataset.num_pois + 5]
        for _ in range(6):
            with pytest.raises(ValueError, match="unknown POI id"):
                service.recommend(bad_user, k=3, candidates=bad_slate)
        assert service.health.model_failures == 0
        assert service.breaker.state == CLOSED
        recs = service.recommend(healthy, k=3)
        assert len(recs) == 3 and not any(r.degraded for r in recs)

    @pytest.mark.parametrize("bad_id", [0, -1, 10**9])
    def test_batch_refuses_before_the_model(self, micro_dataset, bad_id):
        model = ScriptedModel()
        service = make_service(micro_dataset, model)
        users = micro_dataset.users()[:2]
        with pytest.raises(ValueError, match=f"unknown POI id {bad_id}"):
            service.recommend_batch(users, k=3, candidates=[None, [3, bad_id]])
        assert model.calls == 0
        assert service.health.model_failures == 0


class TestChaos:
    """Seeded chaos runs (seed from REPRO_CHAOS_SEED in CI's matrix)."""

    def _workload(self, service, users):
        out = []
        for user in users:
            out.append([(r.poi, r.score, r.degraded)
                        for r in service.recommend(user, k=5)])
        for rows in service.recommend_batch(users, k=5):
            out.append([(r.poi, r.score, r.degraded) for r in rows])
        return out

    def test_eviction_only_chaos_is_bitwise_invisible(self, micro_dataset):
        """Forced evictions are pure cache misses: everything recomputes
        to the identical bytes and nothing degrades."""
        users = micro_dataset.users()[:4]
        baseline = self._workload(make_service(micro_dataset), users)
        with fault_injection(seed=CHAOS_SEED, cache_evict_rate=0.5) as plan:
            service = make_service(micro_dataset)
            chaotic = self._workload(service, users)
        assert chaotic == baseline
        assert service.health.degraded_rows == 0
        assert all(e.kind == "evict" for e in plan.log)

    def test_corruption_chaos_never_raises_and_counters_reconcile(
        self, micro_dataset
    ):
        users = micro_dataset.users()[:6]
        obs.reset()
        with obs.observability():
            with fault_injection(
                seed=CHAOS_SEED, cache_corrupt_rate=0.25, cache_evict_rate=0.1
            ) as plan:
                service = make_service(micro_dataset)
                results = self._workload(service, users)
                degraded_metric = obs.REGISTRY.counter(
                    "repro_degraded_requests_total"
                ).value
        # Liveness: every request answered, full slates, never raised.
        assert all(len(rows) == 5 for rows in results)
        # Reconciliation: degradation implies injections, and the
        # instance counter mirrors the registry exactly.
        assert degraded_metric == service.health.degraded_rows
        if service.health.degraded_rows:
            assert any(e.kind == "corrupt" for e in plan.log)
        if not plan.log:
            assert service.health.degraded_rows == 0
        # Degraded rows are flagged all-or-nothing per row.
        for rows in results:
            flags = {flag for _, _, flag in rows}
            assert len(flags) == 1

    def test_op_fault_chaos_on_real_model(self, micro_dataset):
        """NaNs injected inside the model's own ops surface as degraded
        rows, never as exceptions or NaN scores in the response."""
        users = micro_dataset.users()[:4]
        with fault_injection(seed=CHAOS_SEED, op_nan_rate=0.02) as plan:
            service = make_service(micro_dataset)
            results = self._workload(service, users)
        assert all(len(rows) == 5 for rows in results)
        for rows in results:
            for poi, score, _ in rows:
                assert np.isfinite(score)
                assert 1 <= poi <= micro_dataset.num_pois
        if any(e.site == "op" for e in plan.log):
            assert service.health.degraded_rows > 0
        else:
            assert service.health.degraded_rows == 0
