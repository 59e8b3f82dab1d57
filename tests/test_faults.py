"""The fault-injection harness itself: deterministic, seeded, and —
with every rate at zero — bitwise invisible.

The disabled-vs-enabled property mirrors ``test_obs_properties``: a
training run and a serving workload must produce identical bytes with
no harness installed, and with the harness installed at zero rates.
"""

import numpy as np
import pytest

from repro.core import RecommendationService, STiSANConfig, TrainConfig
from repro.core.cache import LRUCache
from repro.core.stisan import STiSAN
from repro.core.trainer import train_stisan
from repro.data import partition
from repro.faults import (
    FaultConfig,
    FaultPlan,
    InjectedFault,
    active_plan,
    fault_injection,
    is_enabled,
)
import importlib

# ``repro.nn`` re-exports a *function* named ``tensor`` that shadows the
# submodule attribute, so resolve the modules through importlib.
serialization = importlib.import_module("repro.nn.serialization")
tensor_mod = importlib.import_module("repro.nn.tensor")
Tensor = tensor_mod.Tensor

MAX_LEN = 10


def make_service(dataset, seed=0, **kwargs):
    cfg = STiSANConfig.small(
        max_len=MAX_LEN, poi_dim=8, geo_dim=8, num_blocks=1, dropout=0.0
    )
    model = STiSAN(dataset.num_pois, dataset.poi_coords, cfg,
                   rng=np.random.default_rng(seed))
    model.eval()
    return RecommendationService(
        model, dataset, max_len=MAX_LEN, num_candidates=20, **kwargs
    )


def serve_workload(service, users):
    out = []
    for user in users:
        out.append([(r.poi, r.score) for r in service.recommend(user, k=5)])
    for rows in service.recommend_batch(users, k=5):
        out.append([(r.poi, r.score) for r in rows])
    return out


class TestFaultConfig:
    @pytest.mark.parametrize("field", [
        "op_nan_rate", "op_error_rate", "cache_corrupt_rate",
        "cache_evict_rate", "torn_write_rate", "bit_flip_rate",
    ])
    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_rates_validated(self, field, bad):
        with pytest.raises(ValueError, match=field):
            FaultConfig(**{field: bad})

    def test_defaults_are_all_zero(self):
        cfg = FaultConfig()
        assert cfg.op_nan_rate == cfg.op_error_rate == 0.0
        assert cfg.cache_corrupt_rate == cfg.cache_evict_rate == 0.0
        assert cfg.torn_write_rate == cfg.bit_flip_rate == 0.0
        assert cfg.crash_at_step is None


class TestContextManager:
    def test_install_and_restore(self):
        assert not is_enabled() and active_plan() is None
        with fault_injection(seed=1) as plan:
            assert is_enabled()
            assert active_plan() is plan
            assert tensor_mod._fault_hook is not None
            assert serialization._io_fault_hook is plan
        assert not is_enabled() and active_plan() is None
        assert tensor_mod._fault_hook is None
        assert serialization._io_fault_hook is None

    def test_restores_after_exception(self):
        with pytest.raises(RuntimeError, match="boom"):
            with fault_injection(seed=1):
                raise RuntimeError("boom")
        assert active_plan() is None
        assert tensor_mod._fault_hook is None

    def test_accepts_config_or_plan(self):
        cfg = FaultConfig(seed=3, op_nan_rate=0.5)
        with fault_injection(cfg) as plan:
            assert plan.config is cfg
        ready = FaultPlan(FaultConfig(seed=4))
        with fault_injection(ready) as plan:
            assert plan is ready


class TestOpSite:
    def test_nan_injection_at_rate_one(self):
        with fault_injection(seed=0, op_nan_rate=1.0) as plan:
            out = Tensor(np.ones((3, 3), dtype=np.float32)) * 2.0
        assert np.isnan(out.data).sum() >= 1
        assert any(e.site == "op" and e.kind == "nan" for e in plan.log)

    def test_error_injection_at_rate_one(self):
        with fault_injection(seed=0, op_error_rate=1.0) as plan:
            with pytest.raises(InjectedFault, match="injected failure at op"):
                Tensor(np.ones(4, dtype=np.float32)) + 1.0
        assert plan.counts().get(("op", "error")) == 1

    def test_zero_rate_never_draws(self):
        """A zero-rate plan must not consume any RNG state, so two runs
        of different lengths keep identical generators (bitwise-free)."""
        with fault_injection(seed=9) as plan:
            for _ in range(5):
                Tensor(np.ones(4, dtype=np.float32)) + 1.0
            state_after = {
                site: rng.bit_generator.state for site, rng in plan._rngs.items()
            }
        fresh = FaultPlan(FaultConfig(seed=9))
        for site, rng in fresh._rngs.items():
            assert rng.bit_generator.state == state_after[site]
        assert plan.log == []


class TestCacheSite:
    def test_evict_turns_hit_into_miss_and_drops_entry(self):
        cache = LRUCache(8, name="slates")
        cache.put("key", np.arange(4))
        with fault_injection(seed=0, cache_evict_rate=1.0) as plan:
            assert cache.get("key") is None
        assert "key" not in cache
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        assert plan.counts().get(("cache", "evict")) == 1

    def test_corrupt_float_value_gets_nan(self):
        cache = LRUCache(8, name="relations")
        cache.put("key", np.ones(6, dtype=np.float32))
        with fault_injection(seed=0, cache_corrupt_rate=1.0) as plan:
            value = cache.get("key")
        assert np.isnan(value).sum() == 1
        # The stored entry itself is untouched (corruption is per-read).
        assert not np.isnan(cache._data["key"]).any()
        assert plan.counts().get(("cache", "corrupt")) == 1

    def test_corrupt_int_value_gets_out_of_range_id(self):
        cache = LRUCache(8, name="slates")
        cache.put("key", np.arange(1, 7, dtype=np.int64))
        with fault_injection(seed=0, cache_corrupt_rate=1.0):
            value = cache.get("key")
        assert value.max() >= np.iinfo(np.int64).max // 2

    def test_disabled_plan_costs_nothing(self):
        cache = LRUCache(8, name="x")
        cache.put("key", np.arange(3))
        assert np.array_equal(cache.get("key"), np.arange(3))
        assert cache.stats.hits == 1


class TestDeterminism:
    def _run_workload(self, plan):
        cache = LRUCache(64, name="slates")
        with fault_injection(plan):
            for i in range(50):
                cache.put(i, np.arange(i + 1, dtype=np.float64))
                cache.get(i)
        return list(plan.log)

    def test_same_seed_same_log(self):
        cfg = FaultConfig(seed=7, cache_corrupt_rate=0.3, cache_evict_rate=0.2)
        log_a = self._run_workload(FaultPlan(cfg))
        log_b = self._run_workload(FaultPlan(cfg))
        assert log_a == log_b and len(log_a) > 0

    def test_different_seed_different_log(self):
        log_a = self._run_workload(FaultPlan(FaultConfig(seed=7, cache_evict_rate=0.3)))
        log_b = self._run_workload(FaultPlan(FaultConfig(seed=8, cache_evict_rate=0.3)))
        assert log_a != log_b

    def test_sites_draw_independently(self):
        """Op-site draws must not shift cache-site decisions."""
        cfg = FaultConfig(seed=7, cache_evict_rate=0.2, op_nan_rate=0.9)
        plan = FaultPlan(cfg)
        with fault_injection(plan):
            for _ in range(20):
                Tensor(np.ones(3, dtype=np.float32)) + 1.0
        cache_log_with_ops = self._run_workload(plan)
        cache_only = self._run_workload(FaultPlan(FaultConfig(seed=7, cache_evict_rate=0.2)))
        assert [e for e in cache_log_with_ops if e.site == "cache"] == cache_only


class TestZeroRateBitwiseFree:
    """Extends the enabled-vs-disabled property suite to the fault
    harness: installed at zero rates, outputs are bitwise identical."""

    def test_serving_identical(self, micro_dataset):
        users = micro_dataset.users()[:4]
        baseline = serve_workload(make_service(micro_dataset), users)
        with fault_injection(seed=0) as plan:
            harnessed = serve_workload(make_service(micro_dataset), users)
        assert harnessed == baseline
        assert plan.log == []

    def test_training_identical(self, micro_dataset):
        train, _ = partition(micro_dataset, n=MAX_LEN)
        cfg = STiSANConfig.small(
            max_len=MAX_LEN, poi_dim=8, geo_dim=8, num_blocks=1, dropout=0.1
        )

        def run():
            model = STiSAN(micro_dataset.num_pois, micro_dataset.poi_coords, cfg,
                           rng=np.random.default_rng(3))
            result = train_stisan(
                model, micro_dataset, train, TrainConfig(epochs=1, batch_size=16, seed=5)
            )
            return result.epoch_losses, model.state_dict()

        losses_a, params_a = run()
        with fault_injection(seed=0) as plan:
            losses_b, params_b = run()
        assert losses_a == losses_b
        assert all(np.array_equal(params_a[k], params_b[k]) for k in params_a)
        assert plan.log == []
