"""Million-POI scaling: one KD-tree index + streaming negatives + sharded loss.

The claim under test: a 500k-POI catalogue trains and serves with
peak memory *flat in the catalogue size* — no ``(P, pool_size)``
neighbour table anywhere on the path.  Three subsystems carry that
claim:

1. **One shared spatial index** — the KD-tree ``PoiIndex``, built once
   per dataset through ``CheckInDataset.spatial_index()``; the same
   handle serves training, evaluation and serving.
2. **Streaming negative sampler** — pools come from the index on
   demand through a bounded LRU.  A dense ``(P, pool_size)`` table
   would cost ``(P+1) * pool * 8`` bytes — 8 GB at 500k POIs — and the
   sampler-phase RSS must stay under a fraction of that.
3. **Sharded sampled-loss head** — ``weighted_bce_loss_sharded`` keeps
   loss temporaries bounded by the shard size; peak traced allocation
   must be flat across shard sizes and well under the unsharded head.

Ceilings are fixed constants, not relative to hardware: streaming
sampler setup must be near-instant, the index build must stay under a
fixed time, the scale profile's RSS delta must stay both under an
absolute cap and under a fraction of the dense table, and the model
build must stay under a per-POI time.  ``REPRO_BENCH_QUICK=1`` drops
the catalogue to 50k POIs for the CI ``scale-smoke`` job; the gates
stay on.

Results are persisted to ``benchmarks/results/BENCH_scale.json``.
"""

import resource
import time
import tracemalloc

from common import QUICK, banner, persist, results_store

import numpy as np

from repro.core import STiSAN, STiSANConfig
from repro.core.loss import weighted_bce_loss, weighted_bce_loss_sharded
from repro.data import partition
from repro.data.batching import BatchIterator
from repro.data.negatives import EvalCandidateRetriever, NearestNegativeSampler
from repro.data.types import CheckInDataset, UserSequence
from repro.nn.optim import FlatAdam
from repro.nn.tensor import Tensor, grad_arena

#: Catalogue size for the scale profile.  50k in QUICK keeps the CI
#: smoke under a couple of minutes on the same code path.
SCALE_POIS = 50_000 if QUICK else 500_000
SCALE_USERS = 48
SCALE_SEQ_LEN = 40

#: The paper's negative-pool width (Section III-H).
POOL_SIZE = 2000
NUM_NEGATIVES = 8

#: Fixed ceilings (the tentpole's acceptance bars).  Streaming setup
#: allocates a bounded LRU and nothing else, so even a loaded CI box
#: has three orders of magnitude of headroom against 1 second.
SAMPLER_SETUP_CEILING_S = 1.0
INDEX_BUILD_CEILING_S = 30.0
#: Absolute cap on the sampler-phase RSS delta (catalogue + index
#: + LRU at capacity), and the fraction of the dense table the same
#: phase is allowed to cost.  The dense table alone is ~8012 MB at
#: 500k POIs (801 MB even at the 50k smoke scale).
SCALE_RSS_CEILING_MB = 1024.0
DENSE_FRACTION_CEILING = 0.35
#: Per-POI ceiling on the STiSAN build.  With the geography encoder's
#: n-gram ids built from integer tile bits the build costs ~2 us per
#: POI; the per-POI quadkey-string path cost 24-33 us, so the ceiling
#: catches a return to it even at the 50k smoke scale.
MODEL_BUILD_CEILING_S_PER_POI = 10e-6

#: Sampling-throughput probe: one cold batch (every pool built via a
#: k-NN query) then the same batch warm (every pool from the LRU).
SAMPLE_BATCH_SHAPE = (8, 16) if QUICK else (16, 16)

#: Training leg: a few real optimizer steps over the scale catalogue
#: with the sharded loss head wired in.
TRAIN_N = 16
TRAIN_BATCH = 8
TRAIN_STEPS = 2 if QUICK else 3
LOSS_SHARD = 64

#: Serving leg: evaluation-protocol slates straight off the shared
#: index (101 candidates each, top-up semantics included).
NUM_SLATES = 8 if QUICK else 16

#: Sharded-loss memory probe shape: (rows, steps, negatives).  Big
#: enough that loss temporaries dominate fixed overheads — the probe
#: is cheap, so QUICK runs the same shape.
LOSS_ROWS = 65536
LOSS_STEPS = 64
LOSS_NEGATIVES = 32
SHARD_SIZES = (512, 2048)


def _peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux; it is a process-lifetime high-water mark,
    # so per-leg readings are only meaningful in run order.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dense_table_mb(num_pois: int) -> float:
    """Bytes a dense ``(P + 1, pool_size)`` int64 pool table would cost."""
    return (num_pois + 1) * POOL_SIZE * 8 / 2**20


def build_scale_catalogue(
    num_pois: int,
    num_users: int = SCALE_USERS,
    seq_len: int = SCALE_SEQ_LEN,
    seed: int = 13,
) -> CheckInDataset:
    """A clustered catalogue at arbitrary P, built fully vectorized.

    ``repro.data.synthetic`` simulates users against a pairwise
    distance matrix — quadratic in P, unusable at 500k — so the scale
    profile samples district-clustered coordinates directly and gives
    each user a uniform random itinerary (the sampler and index only
    care about the catalogue geometry, not the transition structure).
    """
    rng = np.random.default_rng(seed)
    # Keep districts larger than the negative pool (a city has far more
    # than 2000 POIs), so a pool query resolves within one district.
    num_clusters = max(8, num_pois // (2 * POOL_SIZE))
    centers = np.stack(
        [
            rng.uniform(-60.0, 60.0, num_clusters),
            rng.uniform(-178.0, 178.0, num_clusters),
        ],
        axis=1,
    )
    assign = rng.integers(0, num_clusters, num_pois)
    coords = np.zeros((num_pois + 1, 2))
    coords[1:, 0] = np.clip(centers[assign, 0] + rng.normal(0, 0.02, num_pois), -85.0, 85.0)
    coords[1:, 1] = centers[assign, 1] + rng.normal(0, 0.02, num_pois)

    start = 1.3e9
    sequences = {}
    for user in range(1, num_users + 1):
        pois = rng.integers(1, num_pois + 1, size=seq_len)
        times = start + np.cumsum(rng.uniform(600.0, 6 * 3600.0, size=seq_len))
        sequences[user] = UserSequence(user=user, pois=pois, times=times)
    return CheckInDataset(
        name=f"scale-{num_pois}", poi_coords=coords, sequences=sequences
    )


# ----------------------------------------------------------------------
# Leg 1: the scale profile — index, stream, train, serve at SCALE_POIS.
# ----------------------------------------------------------------------
def run_scale_profile() -> dict:
    rss0 = _peak_rss_mb()
    report = {}

    t0 = time.perf_counter()
    ds = build_scale_catalogue(SCALE_POIS)
    report["catalogue"] = {
        "num_pois": SCALE_POIS,
        "build_s": time.perf_counter() - t0,
        "dense_table_mb_analytic": dense_table_mb(SCALE_POIS),
    }

    t0 = time.perf_counter()
    index = ds.spatial_index()
    report["spatial_index"] = {
        "build_s": time.perf_counter() - t0,
        "peak_rss_mb": _peak_rss_mb(),
    }

    t0 = time.perf_counter()
    sampler = NearestNegativeSampler(
        ds,
        num_negatives=NUM_NEGATIVES,
        pool_size=POOL_SIZE,
        rng=np.random.default_rng(5),
    )
    setup_s = time.perf_counter() - t0

    draw = np.random.default_rng(6)
    targets = draw.integers(1, SCALE_POIS + 1, size=SAMPLE_BATCH_SHAPE)
    t0 = time.perf_counter()
    cold = sampler.sample(targets)
    cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm = sampler.sample(targets)
    warm_s = time.perf_counter() - t0
    stats = sampler._pool_cache.stats
    report["streaming_sampler"] = {
        "is_streaming": sampler.mode == "streaming",
        "setup_s": setup_s,
        "cold_negatives_per_s": cold.size / cold_s,
        "warm_negatives_per_s": warm.size / warm_s,
        "cache_hit_rate": stats.hit_rate,
        "rss_delta_mb": _peak_rss_mb() - rss0,
        "peak_rss_mb": _peak_rss_mb(),
    }

    # Train: real optimizer steps at catalogue scale, sharded loss head.
    examples, _ = partition(ds, n=TRAIN_N)
    cfg = STiSANConfig(
        max_len=TRAIN_N,
        poi_dim=8,
        geo_dim=8,
        num_blocks=1,
        ffn_hidden=32,
        dropout=0.0,
        quadkey_level=12,
        quadkey_ngram=4,
    )
    t0 = time.perf_counter()
    model = STiSAN(ds.num_pois, ds.poi_coords, cfg, rng=np.random.default_rng(7))
    model_build_s = time.perf_counter() - t0
    optimizer = FlatAdam(model.parameters(), lr=3e-3)
    model.train()
    subset = examples[: TRAIN_BATCH * TRAIN_STEPS]
    iterator = BatchIterator(
        subset, batch_size=TRAIN_BATCH, sampler=sampler, rng=np.random.default_rng(0)
    )
    first_loss = None
    t0 = time.perf_counter()
    steps = 0
    with grad_arena() as arena:
        for batch in iterator:
            pos, neg = model.forward_train(
                batch.src, batch.times, batch.tgt, batch.negatives
            )
            loss = weighted_bce_loss_sharded(
                pos, neg, batch.target_mask, temperature=1.0, shard_size=LOSS_SHARD
            )
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            arena.reset()
            if first_loss is None:
                first_loss = float(loss.data)
            steps += 1
    train_s = time.perf_counter() - t0
    report["train"] = {
        "model_build_s": model_build_s,
        "steps": steps,
        "steps_per_sec": steps / train_s,
        "loss_shard_size": LOSS_SHARD,
        "first_step_loss": first_loss,
        "peak_rss_mb": _peak_rss_mb(),
    }

    # Serve: evaluation-protocol slates from the shared index.
    retriever = EvalCandidateRetriever(ds, num_candidates=100)
    shared = retriever.index is index is sampler.index
    users = ds.users()
    slate_targets = draw.integers(1, SCALE_POIS + 1, size=NUM_SLATES)
    t0 = time.perf_counter()
    widths = {
        len(retriever.candidates(users[i % len(users)], int(t)))
        for i, t in enumerate(slate_targets)
    }
    serve_s = time.perf_counter() - t0
    report["serve"] = {
        "slates": NUM_SLATES,
        "slates_per_sec": NUM_SLATES / serve_s,
        "slate_width_min": min(widths),
        "slate_width_max": max(widths),
        "shared_index_handle": shared,
        "peak_rss_mb": _peak_rss_mb(),
        "total_rss_delta_mb": _peak_rss_mb() - rss0,
    }
    return report


def test_scale_profile(benchmark):
    report = benchmark.pedantic(run_scale_profile, rounds=1, iterations=1)
    cat, index = report["catalogue"], report["spatial_index"]
    samp, train, serve = report["streaming_sampler"], report["train"], report["serve"]
    dense_mb = cat["dense_table_mb_analytic"]
    rss_ceiling = min(SCALE_RSS_CEILING_MB, DENSE_FRACTION_CEILING * dense_mb)
    banner(f"Scale profile — {SCALE_POIS:,} POIs, pool {POOL_SIZE}")
    print(
        f"index        built in {index['build_s']:6.2f} s "
        f"(ceiling {INDEX_BUILD_CEILING_S:.0f} s)"
    )
    print(
        f"sampler      setup {samp['setup_s'] * 1e3:8.2f} ms "
        f"(ceiling {SAMPLER_SETUP_CEILING_S * 1e3:.0f} ms), "
        f"cold {samp['cold_negatives_per_s']:8.0f} neg/s, "
        f"warm {samp['warm_negatives_per_s']:8.0f} neg/s"
    )
    print(
        f"memory       delta {samp['rss_delta_mb']:7.1f} MB "
        f"(ceiling {rss_ceiling:.0f} MB; dense table would be {dense_mb:.0f} MB)"
    )
    print(
        f"train        {train['steps_per_sec']:6.3f} steps/s at shard {LOSS_SHARD}, "
        f"model built in {train['model_build_s']:.2f} s "
        f"({train['model_build_s'] / SCALE_POIS * 1e6:.1f} us/POI, "
        f"ceiling {MODEL_BUILD_CEILING_S_PER_POI * 1e6:.0f} us)"
    )
    print(
        f"serve        {serve['slates_per_sec']:6.1f} slates/s, "
        f"total RSS delta {serve['total_rss_delta_mb']:7.1f} MB"
    )
    persist(
        "BENCH_scale",
        report,
        num_pois=SCALE_POIS, pool_size=POOL_SIZE,
        rss_ceiling_mb=rss_ceiling, setup_ceiling_s=SAMPLER_SETUP_CEILING_S,
        model_build_ceiling_s_per_poi=MODEL_BUILD_CEILING_S_PER_POI,
    )
    assert serve["shared_index_handle"], (
        "sampler, retriever and dataset must share one index build"
    )
    assert index["build_s"] <= INDEX_BUILD_CEILING_S, (
        f"index build {index['build_s']:.1f}s over the {INDEX_BUILD_CEILING_S}s ceiling"
    )
    assert samp["is_streaming"], "sampler is not streaming"
    assert samp["setup_s"] <= SAMPLER_SETUP_CEILING_S, (
        f"streaming setup {samp['setup_s']:.2f}s over the "
        f"{SAMPLER_SETUP_CEILING_S}s ceiling — is a pool table being built?"
    )
    assert samp["rss_delta_mb"] <= rss_ceiling, (
        f"sampler-phase RSS delta {samp['rss_delta_mb']:.0f} MB over the "
        f"{rss_ceiling:.0f} MB ceiling (dense baseline: {dense_mb:.0f} MB)"
    )
    # The warm pass must actually come from the LRU, not fresh queries.
    assert samp["cache_hit_rate"] > 0.4, (
        f"pool cache hit rate {samp['cache_hit_rate']:.2f} — LRU not reused"
    )
    assert samp["warm_negatives_per_s"] > samp["cold_negatives_per_s"], (
        "warm sampling no faster than cold: pools are being rebuilt"
    )
    assert train["steps"] == TRAIN_STEPS and np.isfinite(train["first_step_loss"])
    assert train["model_build_s"] <= MODEL_BUILD_CEILING_S_PER_POI * SCALE_POIS, (
        f"model build {train['model_build_s']:.2f}s over the "
        f"{MODEL_BUILD_CEILING_S_PER_POI * 1e6:.0f} us/POI ceiling — are the "
        "geography n-gram ids being built per POI?"
    )
    assert serve["slate_width_min"] == serve["slate_width_max"] == 101, (
        "slates must be 1 target + 100 candidates, got widths "
        f"[{serve['slate_width_min']}, {serve['slate_width_max']}]"
    )


# ----------------------------------------------------------------------
# Leg 2: sharded loss head — peak allocation flat in the shard count.
# ----------------------------------------------------------------------
def _traced_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def run_sharded_loss_memory() -> dict:
    rows = int(np.ceil(LOSS_ROWS / LOSS_STEPS))
    rng = np.random.default_rng(0)
    pos_data = rng.standard_normal((rows, LOSS_STEPS)).astype(np.float32)
    neg_data = rng.standard_normal((rows, LOSS_STEPS, LOSS_NEGATIVES)).astype(np.float32)
    mask = np.ones((rows, LOSS_STEPS), dtype=bool)

    legs = {}

    def run(shard_size: int) -> dict:
        pos = Tensor(pos_data, requires_grad=True)
        neg = Tensor(neg_data, requires_grad=True)

        def step():
            if shard_size:
                loss = weighted_bce_loss_sharded(
                    pos, neg, mask, temperature=1.0, shard_size=shard_size
                )
            else:
                loss = weighted_bce_loss(pos, neg, mask, temperature=1.0)
            loss.backward()
            legs[f"value_{shard_size}"] = float(loss.data)

        peak = _traced_peak_mb(step)
        return {"peak_mb": peak, "pos_grad": pos.grad, "neg_grad": neg.grad}

    unsharded = run(0)
    sharded = {s: run(s) for s in SHARD_SIZES}
    report = {
        "rows": rows,
        "steps": LOSS_STEPS,
        "negatives": LOSS_NEGATIVES,
        "unsharded_peak_mb": unsharded["peak_mb"],
    }
    for s in SHARD_SIZES:
        report[f"shard{s}_peak_mb"] = sharded[s]["peak_mb"]
        report[f"shard{s}_forward_delta"] = abs(
            legs[f"value_{s}"] - legs["value_0"]
        )
        report[f"shard{s}_grads_bitwise"] = bool(
            np.array_equal(sharded[s]["pos_grad"], unsharded["pos_grad"])
            and np.array_equal(sharded[s]["neg_grad"], unsharded["neg_grad"])
        )
    return report


def test_sharded_loss_memory(benchmark):
    report = benchmark.pedantic(run_sharded_loss_memory, rounds=1, iterations=1)
    banner(
        f"Sharded loss memory — ({report['rows']} x {report['steps']}) "
        f"targets, L={report['negatives']}"
    )
    print(f"unsharded  peak {report['unsharded_peak_mb']:7.1f} MB")
    for s in SHARD_SIZES:
        print(
            f"shard {s:<5d} peak {report[f'shard{s}_peak_mb']:7.1f} MB, "
            f"|forward delta| {report[f'shard{s}_forward_delta']:.2e}, "
            f"grads bitwise: {report[f'shard{s}_grads_bitwise']}"
        )
    try:
        prior = results_store().load("BENCH_scale").rows
    except FileNotFoundError:
        prior = {}
    persist(
        "BENCH_scale", {**prior, "sharded_loss": report},
        num_pois=SCALE_POIS, pool_size=POOL_SIZE,
    )
    small, large = SHARD_SIZES
    for s in SHARD_SIZES:
        assert report[f"shard{s}_forward_delta"] <= 1e-6, (
            f"sharded forward at shard {s} drifted past 1e-6"
        )
        assert report[f"shard{s}_grads_bitwise"], (
            f"sharded gradients at shard {s} are not bitwise equal"
        )
        assert report[f"shard{s}_peak_mb"] <= 0.6 * report["unsharded_peak_mb"], (
            f"shard {s} peak {report[f'shard{s}_peak_mb']:.1f} MB not under "
            f"60% of unsharded {report['unsharded_peak_mb']:.1f} MB"
        )
    # Flat in the shard count: a 4x shard-size change must not move the
    # peak materially, because full-size grad buffers dominate.
    ratio = report[f"shard{large}_peak_mb"] / report[f"shard{small}_peak_mb"]
    assert ratio <= 1.35, (
        f"peak grew {ratio:.2f}x from shard {small} to {large} — not flat"
    )

