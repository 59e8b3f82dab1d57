"""Operational lightweight check: per-query scoring latency.

Complements Table VI's analytic FLOPs with wall-clock measurements:
STiSAN (TAPE + IAAB + TAAD) versus its SA-only ablation and the SASRec
backbone, on an identical candidate-scoring workload.  The reproduction
target: the interval-aware machinery must cost only a modest constant
factor (it is O(n^2) relation building on top of O(n^2 d) attention).

The serving sweep measures the deployment path: queries-per-second of
``RecommendationService.recommend_batch`` across batch sizes with the
slate/relation caches on.  The numpy engine's per-op overhead makes
unbatched inference the dominant serving cost, so batching must buy at
least 3x throughput at batch size 32.

The observability-overhead check guards the ``repro.obs`` layer's
always-on promise on the same batch-32 serving path: disabled-mode cost
(no-op span/counter guards) must stay under 2%, and enabled-mode
metrics + spans (no op profiler) under 15%.  The fault-harness check
holds ``repro.faults`` to the same bar: installed at zero rates, the
serving path must stay within 2% of the no-harness baseline.  The
measured numbers are persisted to the bench results JSON alongside the
sweep.
"""

from common import (
    banner,
    dataset,
    persist,
    stisan_config,
    train_config,
)

import numpy as np

from repro.baselines import make_recommender
from repro.core import RecommendationService
from repro.data import partition
from repro.eval import (
    compare_latency,
    format_batch_sweep,
    measure_fault_harness_overhead,
    measure_observability_overhead,
    sweep_service_batches,
)

MAX_LEN = 32


def run_latency():
    ds = dataset("gowalla")
    train, evaluation = partition(ds, n=MAX_LEN)
    quick = train_config(epochs=1)
    models = {}
    for name, kwargs in (
        ("SASRec", dict()),
        ("GeoSAN", dict(stisan_config=stisan_config(use_tape=False, use_relation=False))),
        ("STiSAN", dict(stisan_config=stisan_config())),
    ):
        model = make_recommender(name, ds, max_len=MAX_LEN, dim=32, seed=0, **kwargs)
        model.fit(ds, train, quick)
        models[name] = model
    return compare_latency(
        models, evaluation, ds, num_candidates=100, batch_size=16, num_calls=5,
        rng=np.random.default_rng(0),
    )


def test_scoring_latency(benchmark):
    reports = benchmark.pedantic(run_latency, rounds=1, iterations=1)
    banner("Latency — per-query candidate scoring")
    for name, report in reports.items():
        print(f"{name:8s} {report}")
    # STiSAN's overhead over the GeoSAN ablation must be a modest
    # constant factor (relation building + TAPE are O(n^2) numpy ops).
    assert reports["STiSAN"].mean_s <= 5.0 * max(reports["GeoSAN"].mean_s, 1e-9)


def run_serving_sweep():
    ds = dataset("gowalla")
    train, _ = partition(ds, n=MAX_LEN)
    model = make_recommender(
        "STiSAN", ds, max_len=MAX_LEN, dim=32, seed=0, stisan_config=stisan_config()
    )
    model.fit(ds, train, train_config(epochs=1))
    service = RecommendationService(model, ds, max_len=MAX_LEN, num_candidates=100)
    users = ds.users()[:64]
    return sweep_service_batches(
        service, users, batch_sizes=(1, 8, 32), k=10, rounds=2, warmup=1
    )


def test_serving_batch_sweep(benchmark):
    points = benchmark.pedantic(run_serving_sweep, rounds=1, iterations=1)
    banner("Serving — recommend_batch throughput vs batch size")
    print(format_batch_sweep(points))
    qps = {p.batch_size: p.queries_per_second for p in points}
    # Batching queries through one (B, n) forward pass amortizes the
    # numpy per-op overhead: batch 32 must clear 3x single-query qps.
    assert qps[32] >= 3.0 * qps[1], f"batch-32 speedup {qps[32] / qps[1]:.2f}x < 3x"
    # The steady-state caches must actually be hit on the timed rounds.
    last = points[-1]
    if last.cache_hit_rates:
        assert last.cache_hit_rates["slates"] > 0.9
        assert last.cache_hit_rates["relations"] > 0.9


def run_observability_overhead():
    ds = dataset("gowalla")
    train, _ = partition(ds, n=MAX_LEN)
    model = make_recommender(
        "STiSAN", ds, max_len=MAX_LEN, dim=32, seed=0, stisan_config=stisan_config()
    )
    model.fit(ds, train, train_config(epochs=1))
    service = RecommendationService(model, ds, max_len=MAX_LEN, num_candidates=100)
    users = ds.users()[:64]
    return measure_observability_overhead(
        service, users, batch_size=32, rounds=2, repeats=3
    )


def test_observability_overhead(benchmark):
    report = benchmark.pedantic(run_observability_overhead, rounds=1, iterations=1)
    banner("Observability — repro.obs cost on the batch-32 serving path")
    print(report)
    persist("observability_overhead", {"batch32": report.as_dict()})
    # Disabled mode is the always-on promise: the instrumentation's
    # worst-case bound (every site priced as a no-op span call) must be
    # well inside 2% of a query.
    assert report.disabled_overhead_frac < 0.02, (
        f"disabled-mode bound {report.disabled_overhead_frac:.3%} >= 2%"
    )
    # Enabled metrics + spans (no op profiler) must stay cheap enough to
    # leave on in an experiment run.
    assert report.enabled_overhead_frac < 0.15, (
        f"enabled-mode overhead {report.enabled_overhead_frac:.1%} >= 15%"
    )


def run_fault_harness_overhead():
    ds = dataset("gowalla")
    train, _ = partition(ds, n=MAX_LEN)
    model = make_recommender(
        "STiSAN", ds, max_len=MAX_LEN, dim=32, seed=0, stisan_config=stisan_config()
    )
    model.fit(ds, train, train_config(epochs=1))
    service = RecommendationService(model, ds, max_len=MAX_LEN, num_candidates=100)
    users = ds.users()[:64]
    return measure_fault_harness_overhead(
        service, users, batch_size=32, rounds=2, repeats=3
    )


def test_fault_harness_overhead(benchmark):
    report = benchmark.pedantic(run_fault_harness_overhead, rounds=1, iterations=1)
    banner("Fault injection — repro.faults cost on the batch-32 serving path")
    print(report)
    persist("fault_harness_overhead", {"batch32": report.as_dict()})
    # The harness's off-switch promise: installed at zero rates (and a
    # fortiori absent), the serving path stays within 2% of baseline.
    assert report.zero_rate_overhead_frac < 0.02, (
        f"zero-rate harness overhead {report.zero_rate_overhead_frac:.2%} >= 2%"
    )


def run_sustained_serving():
    """Closed-loop Zipf traffic through the async serving tier.

    The healthy-path throughput story: 64 closed-loop clients against
    the tier's dynamic batcher (max-batch 64, 1 ms window) versus the
    same seeded request schedule replayed serially through bare
    ``recommend`` calls.  On one core the tier's edge is batching
    amortization plus Zipf in-batch coalescing, not threads.
    """
    from repro.serving import (
        LoadGenConfig,
        ServingTier,
        TierConfig,
        run_load,
        run_serial_baseline,
    )

    ds = dataset("gowalla")
    train, _ = partition(ds, n=MAX_LEN)
    model = make_recommender(
        "STiSAN", ds, max_len=MAX_LEN, dim=32, seed=0, stisan_config=stisan_config()
    )
    model.fit(ds, train, train_config(epochs=1))
    service = RecommendationService(model, ds, max_len=MAX_LEN, num_candidates=100)
    users = ds.users()[:64]
    for user in users[:4]:
        service.recommend(user)  # warm slate/relation caches
    tier_cfg = dict(
        num_workers=2, max_batch=64, batch_window_s=0.001,
        deadline_s=2.0, queue_depth=256,
    )
    load = LoadGenConfig(clients=64, requests_per_client=10,
                         zipf_exponent=1.3, seed=0)
    # Warmup pass (thread spin-up, allocator steady state), then
    # best-of-2 measured passes to shave scheduler noise.
    warm = ServingTier(service, TierConfig(**tier_cfg))
    run_load(warm, users, LoadGenConfig(clients=64, requests_per_client=2,
                                        zipf_exponent=1.3, seed=0))
    warm.close()
    best, best_tier = None, None
    for _ in range(2):
        tier = ServingTier(service, TierConfig(**tier_cfg))
        report = run_load(tier, users, load)
        tier.close()
        assert tier.verify_no_loss() and tier.workers_healthy()
        if best is None or report.qps > best.qps:
            best, best_tier = report, tier
    serial = run_serial_baseline(service, users, load)
    return {
        "tier": best,
        "snapshot": best_tier.snapshot(),
        "serial": serial,
        "deadline_s": tier_cfg["deadline_s"],
    }


def test_sustained_serving(benchmark):
    result = benchmark.pedantic(run_sustained_serving, rounds=1, iterations=1)
    report, serial = result["tier"], result["serial"]
    speedup = report.qps / max(serial["qps"], 1e-9)
    banner("Serving — sustained Zipf traffic through the async tier")
    print(report.format())
    print(f"serial        {serial['qps']:.1f} qps  "
          f"p50={serial['p50_ms']:.1f}ms p99={serial['p99_ms']:.1f}ms  "
          f"->  tier speedup {speedup:.2f}x")
    sustained = {
        "qps": report.qps,
        "p50_ms": report.latency_ms["p50"],
        "p99_ms": report.latency_ms["p99"],
        "admitted_p99_ms": report.admitted_latency_ms["p99"],
        "shed_rate": report.shed_rate,
        "coalesced": report.coalesced,
        "serial_qps": serial["qps"],
        "speedup": speedup,
        "clients": 64,
        "max_batch": 64,
        "deadline_s": result["deadline_s"],
    }
    persist("BENCH_latency", {"sustained": sustained}, max_len=MAX_LEN,
            num_candidates=100, batch_size=64)
    # Nothing lost, nobody shed on the healthy path.
    assert report.lost == 0
    assert report.shed_rate == 0.0, f"healthy path shed {report.shed_rate:.1%}"
    # p99 for admitted requests is bounded by the per-request deadline.
    assert report.admitted_latency_ms["p99"] <= result["deadline_s"] * 1e3, (
        f"admitted p99 {report.admitted_latency_ms['p99']:.1f}ms over deadline"
    )
    # The tier gate: continuous batching + Zipf coalescing must beat
    # serial single-request serving by >= 5x on one core.
    assert speedup >= 5.0, f"tier speedup {speedup:.2f}x below 5x"
