"""The four workloads, each driving only public entry points.

Every workload has the same shape:

- ``inputs(seed)`` generates the inputs (not timed);
- ``setup(inputs)`` builds what the timed phase needs and warms it up
  (timed: this is ``setup_s``);
- ``measure(state, seconds, checks)`` runs the timed phase and returns
  the end-to-end numbers, checking the outputs as it goes;
- ``targets(state)`` lists the layer entry points the traced run wraps.

See ``perfbench/README.md`` for what each end-to-end metric means on
each workload and which layer metric should move which of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.core.stisan as stisan_module
import repro.core.trainer as trainer_module
import repro.geo.grid as grid_module
from repro.core import (
    GeographyEncoder,
    RecommendationService,
    STiSAN,
    STiSANConfig,
    TrainConfig,
    train_stisan,
)
from repro.data import load_dataset, partition
from repro.data.batching import BatchIterator
from repro.data.negatives import EvalCandidateRetriever, NearestNegativeSampler
from repro.data.types import CheckInDataset, UserSequence
from repro.eval import evaluate
from repro.nn.optim import FlatAdam
from repro.nn.tensor import Tensor
from repro.obs import perf_counter
from repro.serving import ServingTier, TierConfig

from harness import (
    Checks, LayerTimer, SpeedProbe, Target, median_of, percentile, samples_needed,
)
from loadgen import (
    OpenLoopResult, interpolate_max_rate, poisson_schedule, run_closed_window,
    run_open_loop, step_passes,
)

#: End-to-end metrics: name -> (unit, better).
E2E = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "query_p50_ms": ("ms", "lower"),
    "query_tail_ms": ("ms", "lower"),
}

#: Per-layer metrics: name -> (unit, better).  The end-to-end metric
#: each should move, and on which workload, is in README.md.
LAYERS = {
    "data.negatives.sample_ms": ("ms", "lower"),
    "data.negatives.pool_query_ms": ("ms", "lower"),
    "data.negatives.pool_hit_frac": ("fraction", "higher"),
    "data.batching.next_ms": ("ms", "lower"),
    "core.geo_encoder.forward_ms": ("ms", "lower"),
    "core.geo_encoder.encode_cached_ms": ("ms", "lower"),
    "core.geo_encoder.init_s": ("s", "lower"),
    "core.stisan.init_s": ("s", "lower"),
    "geo.grid.build_s": ("s", "lower"),
    "core.relation.build_ms": ("ms", "lower"),
    "core.iaab.forward_ms": ("ms", "lower"),
    "core.taad.forward_ms": ("ms", "lower"),
    "core.loss.forward_ms": ("ms", "lower"),
    "nn.tensor.backward_ms": ("ms", "lower"),
    "nn.optim.step_ms": ("ms", "lower"),
    "eval.retriever.slate_ms": ("ms", "lower"),
    "core.stisan.score_ms": ("ms", "lower"),
    "geo.neighbors.nearest_excluding_ms": ("ms", "lower"),
    "geo.neighbors.nearest_excluding_calls": ("count", "lower"),
    "core.cache.slates.hit_frac": ("fraction", "higher"),
    "core.cache.relations.hit_frac": ("fraction", "higher"),
    "core.cache.geo.hit_frac": ("fraction", "higher"),
    "core.service.recommend_batch_ms": ("ms", "lower"),
    "core.service.busy_frac": ("fraction", "lower"),
    "core.service.self_ms": ("ms", "lower"),
    "serving.queue.wait_p50_ms": ("ms", "lower"),
    "serving.queue.wait_p99_ms": ("ms", "lower"),
    "serving.tier.batch_size_mean": ("requests", "higher"),
    "serving.tier.coalesced_frac": ("fraction", "higher"),
    "serving.loadgen.late_p99_ms": ("ms", "lower"),
    "serving.tier.shed": ("count", "lower"),
    "serving.tier.timeout": ("count", "lower"),
    "serving.tier.degraded": ("count", "lower"),
    "serving.ladder.max_qps": ("1/s", "higher"),
    "run.fail_frac": ("fraction", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
}

#: Layers timed by mean inclusive wall time per call: layer -> metric.
TIMED_LAYERS = {
    "data.negatives.sample": "data.negatives.sample_ms",
    "data.negatives.pool_query": "data.negatives.pool_query_ms",
    "core.geo_encoder.forward": "core.geo_encoder.forward_ms",
    "core.geo_encoder.encode_cached": "core.geo_encoder.encode_cached_ms",
    "core.relation.build": "core.relation.build_ms",
    "core.iaab.forward": "core.iaab.forward_ms",
    "core.taad.forward": "core.taad.forward_ms",
    "core.loss.forward": "core.loss.forward_ms",
    "nn.tensor.backward": "nn.tensor.backward_ms",
    "nn.optim.step": "nn.optim.step_ms",
    "eval.retriever.slate": "eval.retriever.slate_ms",
    "core.stisan.score": "core.stisan.score_ms",
    "geo.neighbors.nearest_excluding": "geo.neighbors.nearest_excluding_ms",
    "core.service.recommend_batch": "core.service.recommend_batch_ms",
}

#: Set-up layers, timed in seconds per call during a traced set-up.
SETUP_TARGETS: List[Target] = [
    (GeographyEncoder, "__init__", "core.geo_encoder.init", False),
    (STiSAN, "__init__", "core.stisan.init", False),
    (grid_module, "build_spatial_index", "geo.grid.build", False),
]
SETUP_LAYERS = {
    "core.geo_encoder.init": "core.geo_encoder.init_s",
    "core.stisan.init": "core.stisan.init_s",
    "geo.grid.build": "geo.grid.build_s",
}

#: Layers every workload wraps when present (module and class level).
COMMON_TARGETS: List[Target] = [
    (stisan_module, "build_relation_matrix", "core.relation.build", False),
    (stisan_module, "build_relation_matrix_cached", "core.relation.build", False),
    (trainer_module, "weighted_bce_loss", "core.loss.forward", False),
    (trainer_module, "weighted_bce_loss_sharded", "core.loss.forward", False),
    (Tensor, "backward", "nn.tensor.backward", False),
    (FlatAdam, "step", "nn.optim.step", False),
    (NearestNegativeSampler, "sample", "data.negatives.sample", False),
    (NearestNegativeSampler, "pool_for", "data.negatives.pool_lookup", False),
    (BatchIterator, "iter_order", "data.batching.next", True),
    (EvalCandidateRetriever, "candidates", "eval.retriever.slate", False),
]


def model_targets(model: STiSAN) -> List[Target]:
    targets: List[Target] = [
        (model, "score_candidates", "core.stisan.score", False),
        (model.geo_encoder, "forward", "core.geo_encoder.forward", False),
        (model.geo_encoder, "encode_pois_cached", "core.geo_encoder.encode_cached", False),
        (model.decoder, "forward", "core.taad.forward", False),
    ]
    targets += [(block, "forward", "core.iaab.forward", False) for block in model.blocks]
    return targets


def index_targets(index) -> List[Target]:
    return [
        (index, "nearest_excluding", "geo.neighbors.nearest_excluding", False),
        (index, "query_canonical", "data.negatives.pool_query", False),
    ]


def fresh_copy(ds: CheckInDataset) -> CheckInDataset:
    """The same inputs as a new dataset object, so every set-up builds
    its own spatial index instead of reusing a cached one."""
    return CheckInDataset(name=ds.name, poi_coords=ds.poi_coords, sequences=ds.sequences)


def cycle_to(items: list, count: int) -> list:
    return [items[i % len(items)] for i in range(count)]


def train_steps(model, ds, windows, config, probe: SpeedProbe, deadline: float,
                checks: Checks) -> List[Tuple[float, float]]:
    """``(start, seconds)`` of one-step ``train_stisan`` calls rotating
    over the batches of ``windows`` until ``deadline`` (at least one
    call), each after a probe tick.  Every loss must be finite."""
    steps, size = [], config.batch_size
    while perf_counter() < deadline or not steps:
        b = len(steps) % (len(windows) // size)
        probe.tick()
        t0 = perf_counter()
        result = train_stisan(model, ds, windows[b * size:(b + 1) * size], config)
        steps.append((t0, perf_counter() - t0))
        checks.expect(
            all(math.isfinite(x) for x in result.epoch_losses),
            f"non-finite training loss {result.epoch_losses}",
        )
    return steps


@dataclass
class Measurement:
    """What a timed phase produced."""

    throughput_per_s: float
    #: Query latencies, one list per round; the end-to-end latency
    #: figures are medians over rounds of each round's percentiles.
    query_rounds: List[List[float]]
    attempted: int
    failed: int
    #: The workload's cost figure for the tracing-overhead comparison.
    cost: float
    wall_s: float
    layers: Dict[str, float] = field(default_factory=dict)


class Workload:
    name = ""
    why = ""
    #: The tail percentile reported; the timed phase runs until it has
    #: at least ten samples beyond it, so it stays fixed from run to run.
    tail_q = 99.0
    #: Set-ups per untraced run, at least (``setup_s`` is their median).
    setup_min = 3

    def inputs(self, seed: int):
        raise NotImplementedError

    def setup(self, inputs, seed: int):
        raise NotImplementedError

    def measure(self, state, seconds: float, checks: Checks) -> Measurement:
        raise NotImplementedError

    def targets(self, state) -> List[Target]:
        raise NotImplementedError

    def close(self, state) -> None:
        """Stop whatever the set-up started (threads)."""


def cache_hit_fracs(service: Optional[RecommendationService]) -> Dict[str, float]:
    out = {}
    for name in ("slates", "relations", "geo"):
        rate = 0.0
        if service is not None and service.caches is not None:
            stats = service.caches.stats()[name]
            rate = stats.hit_rate if stats.lookups else 0.0
        out[f"core.cache.{name}.hit_frac"] = rate
    return out


# ----------------------------------------------------------------------
# train_paper
# ----------------------------------------------------------------------
PAPER_WINDOWS = 128      # 4 batches of 32; train_steps rotates over them
EVAL_CHUNK = 64          # one evaluate() batch per query


def paper_config() -> STiSANConfig:
    # n = 100, d = 64 = 32 POI (+) 32 GPS, N = 4 IAABs, quadkey 14 / 4-grams.
    return STiSANConfig(
        max_len=100, poi_dim=32, geo_dim=32, num_blocks=4, ffn_hidden=128,
        dropout=0.2, quadkey_level=14, quadkey_ngram=4,
    )


def paper_train_config(seed: int) -> TrainConfig:
    return TrainConfig(
        epochs=1, batch_size=32, learning_rate=3e-3, num_negatives=8,
        temperature=1.0, seed=seed,
    )


class TrainPaper(Workload):
    name = "train_paper"
    tail_q = 75.0
    why = (
        "closed-loop train_stisan at paper shape (n=100, d=64, N=4) plus repeated "
        "101-candidate evaluate passes: dense autograd work dominates"
    )

    def inputs(self, seed):
        ds = load_dataset("gowalla", seed=seed, scale=1.0)
        train, evaluation = partition(ds, n=100)
        return ds, cycle_to(train, PAPER_WINDOWS), cycle_to(evaluation, 2 * EVAL_CHUNK)

    def setup(self, inputs, seed):
        ds, windows, instances = inputs
        ds = fresh_copy(ds)
        model = STiSAN(ds.num_pois, ds.poi_coords, paper_config(), rng=np.random.default_rng(seed))
        # Warm-up: one optimizer step (its loss is the first-step loss)
        # and one evaluate call.
        first = train_stisan(model, ds, windows[:32], paper_train_config(seed))
        evaluate(model, ds, instances[:EVAL_CHUNK])
        return {"ds": ds, "model": model, "windows": windows, "instances": instances,
                "seed": seed, "first_loss": first.epoch_losses[0]}

    def targets(self, state):
        return COMMON_TARGETS + model_targets(state["model"]) + index_targets(
            state["ds"].spatial_index()
        )

    def measure(self, state, seconds, checks):
        ds, model, seed = state["ds"], state["model"], state["seed"]
        windows, instances = state["windows"], state["instances"]
        # Every call is timed next to speed probe runs and scaled to the
        # reference speed (see SpeedProbe).
        probe = SpeedProbe()
        start = perf_counter()
        # Training (40% of the run); the rate is one over the median
        # step time.
        steps = train_steps(
            model, ds, windows, paper_train_config(seed), probe, start + 0.4 * seconds, checks
        )
        # Evaluation (the rest): one 64-instance evaluate() per query; the
        # report for a chunk must not change between passes.
        calls, reports = [], {}
        chunks = len(instances) // EVAL_CHUNK
        need = max(2 * chunks, samples_needed(self.tail_q))
        while perf_counter() - start < seconds or len(calls) < need:
            c = len(calls) % chunks
            probe.tick()
            t0 = perf_counter()
            report = evaluate(model, ds, instances[c * EVAL_CHUNK:(c + 1) * EVAL_CHUNK])
            calls.append((t0, perf_counter() - t0))
            if c in reports:
                checks.expect(report == reports[c], f"evaluate report changed on chunk {c}")
            reports[c] = report
        probe.tick()
        throughput = 1.0 / median_of([probe.scaled(*step) for step in steps])
        query_ms = [1e3 * probe.scaled(*call) for call in calls]
        print(f"  {probe.summary()}")
        return Measurement(
            throughput_per_s=throughput,
            query_rounds=[query_ms],
            attempted=len(steps) + len(query_ms),
            failed=0,
            cost=1.0 / throughput,
            wall_s=perf_counter() - start,
        )


# ----------------------------------------------------------------------
# serve_read / serve_checkin
# ----------------------------------------------------------------------
#: The latency numbers come from REFERENCE_RATE, which on a 2-core
#: machine sits well below the knee: 2000 req/s already reads a p99 of
#: 50-80 ms, and at 1000 req/s the p95 moved by up to 38% between runs
#: as the shared machine slowed.  The timed phase alternates ROUNDS
#: open-loop rounds at that rate with capacity rounds and reports
#: medians over rounds, so a stall spoils a round, not the result.
REFERENCE_RATE = 500
ROUNDS = 8
ROUND_SHARE = 0.05
CAPACITY_SHARE = 0.04
#: Outstanding requests in the capacity rounds: three full batches,
#: refilled a batch at a time, so every dispatch takes a full batch.
CAPACITY_WINDOW = 192
MAX_BATCH = 64
#: The rate ladder for ``serving.ladder.max_qps``, walked in order
#: while each step stays sustainable.  A step stops sending once its
#: backlog shows it unsustainable, before the tier has to shed.
LADDER = (500, 1000, 2000, 3000, 4000)
LADDER_SHARE = 0.065
LADDER_MIN_S = 1.0
P99_LIMIT_MS = 50.0
FAIL_LIMIT = 0.01
SLATE_SAMPLE = 8


#: Score agreement between a row scored inside a batch and alone.
SCORE_ATOL = 1e-5


def same_ranking(got, want, atol: float = SCORE_ATOL) -> bool:
    """Whether two top-k ``(poi, score)`` lists agree up to float32
    rounding.

    A row scored inside a batch and the same row scored alone can differ
    in the last bits of a float32 score, which may swap two near-tied
    candidates or the candidates either side of the cut.  So: ``got``
    must be ranked by score, the sorted scores must agree, every POI in
    both lists must have the same score, and a POI in only one list must
    sit at the cut.
    """
    if len(got) != len(want):
        return False
    ranked = [score for _, score in got]
    if any(later > earlier + atol for earlier, later in zip(ranked, ranked[1:])):
        return False
    g, w = dict(got), dict(want)
    if not np.allclose(sorted(g.values()), sorted(w.values()), rtol=0.0, atol=atol):
        return False
    cut = min(w.values(), default=0.0)
    for poi in g.keys() | w.keys():
        if poi in g and poi in w:
            if abs(g[poi] - w[poi]) > atol:
                return False
        elif abs(g.get(poi, w.get(poi)) - cut) > atol:
            return False
    return True


def serving_config() -> STiSANConfig:
    # The small serving model: n = 32, d = 48, two IAABs, quadkey 17 / 6-grams.
    return STiSANConfig.small(max_len=32, quadkey_level=17, quadkey_ngram=6, dropout=0.3)


class Serve(Workload):
    """Open-loop Poisson + Zipf(1.1) traffic through a ServingTier."""

    checkin_every = 0
    #: About 375 requests per round support p95 (18 beyond), not p99.
    tail_q = 95.0

    def inputs(self, seed):
        return load_dataset("gowalla", seed=seed, scale=1.0)

    def setup(self, inputs, seed):
        ds = fresh_copy(inputs)
        model = STiSAN(ds.num_pois, ds.poi_coords, serving_config(), rng=np.random.default_rng(seed))
        model.eval()
        service = RecommendationService(model, ds, max_len=32, num_candidates=100)
        tier = ServingTier(service, TierConfig(max_batch=MAX_BATCH))
        # Warm-up: every user once through the tier (fills the caches).
        users = np.asarray(ds.users())
        for handle in [tier.submit(int(u), k=10) for u in users]:
            handle.wait(30.0)
        return {"ds": ds, "model": model, "service": service, "tier": tier,
                "users": users, "seed": seed}

    def close(self, state):
        state["tier"].close()

    def targets(self, state):
        service = state["service"]
        return (
            COMMON_TARGETS
            + model_targets(state["model"])
            + index_targets(state["ds"].spatial_index())
            + [(service, "recommend_batch", "core.service.recommend_batch", False)]
        )

    def _check_slates(self, state, step: OpenLoopResult, checks: Checks, rng) -> None:
        """Each user's last tier answer must equal a direct
        recommend_batch for the same session state: every check-in of
        that user was recorded before that request was submitted.
        """
        service = state["service"]
        users = sorted(step.last_request)
        for user in rng.choice(users, size=min(SLATE_SAMPLE, len(users)), replace=False):
            _, response = step.last_request[int(user)]
            if response.status != "served":
                continue
            direct = service.recommend_batch([int(user)], k=10)[0]
            got = [(r.poi, r.score) for r in response.recommendations]
            want = [(r.poi, r.score) for r in direct]
            checks.expect(
                same_ranking(got, want),
                f"tier slate != direct slate for user {user} "
                f"(batch {response.batch_size}): {got} vs {want}",
            )

    def _open_loop(self, state, rate, duration, seed, last_times, checks, rng, max_backlog=0):
        schedule = poisson_schedule(
            rate, duration, state["users"], seed=seed,
            checkin_every=self.checkin_every, num_pois=state["ds"].num_pois,
        )
        step = run_open_loop(
            state["tier"], schedule, last_times, rate, max_backlog=max_backlog
        )
        print(
            f"  {rate:5d}/s: sent {step.sent}, p50 {percentile(step.latency_ms, 50):.1f} ms, "
            f"p99 {percentile(step.latency_ms, 99):.1f} ms, late p99 "
            f"{percentile(step.late_ms, 99):.1f} ms, backlog {step.backlog_at_end}, "
            f"{step.by_status}"
        )
        self._check_tier(state, f"{rate}/s", checks)
        self._check_slates(state, step, checks, rng)
        return step

    def _check_tier(self, state, when, checks):
        checks.expect(state["tier"].verify_no_loss(), f"tier lost requests at {when}")
        checks.expect(state["tier"].workers_healthy(), f"unhealthy workers at {when}")

    def measure(self, state, seconds, checks):
        tier, service, users = state["tier"], state["service"], state["users"]
        seed = state["seed"]
        rng = np.random.default_rng(seed + 7)
        last_times = {int(u): service.session(int(u)).times[-1] for u in users}
        if service.caches is not None:
            service.caches.reset_stats()
        stats0 = tier.snapshot()
        # Capacity is scaled to the reference speed, as in train_paper;
        # latency at the reference rate is not: much of it is waiting.
        probe = SpeedProbe()
        start = perf_counter()
        rounds: List[OpenLoopResult] = []
        capacity = {"rounds": [], "sent": 0, "failed": 0}
        for r in range(ROUNDS):
            rounds.append(self._open_loop(
                state, REFERENCE_RATE, ROUND_SHARE * seconds, seed * 100 + r,
                last_times, checks, rng,
            ))
            # Capacity: the same traffic mix with the batcher kept full.
            burst = poisson_schedule(
                1e5, 1.0, users, seed=seed * 100 + 50 + r,
                checkin_every=self.checkin_every, num_pois=state["ds"].num_pois,
            )
            probe.tick()
            t0 = perf_counter()
            part = run_closed_window(
                tier, burst, last_times, CAPACITY_WINDOW, MAX_BATCH, CAPACITY_SHARE * seconds
            )
            capacity["rounds"].append((part["rate"], t0 + (perf_counter() - t0) / 2))
            self._check_tier(state, "capacity", checks)
            capacity["sent"] += part["sent"]
            capacity["failed"] += part["failed"]
        probe.tick()
        capacity_rates = [rate / probe.factor_at(t) for rate, t in capacity["rounds"]]
        print(f"  capacity rounds: {[round(x) for x in capacity_rates]} req/s")
        print(f"  {probe.summary()}")
        steps: List[OpenLoopResult] = []
        for r, rate in enumerate(LADDER):
            step = self._open_loop(
                state, rate, max(LADDER_MIN_S, LADDER_SHARE * seconds), seed * 100 + 90 + r,
                last_times, checks, rng, max_backlog=int(rate * P99_LIMIT_MS / 1e3),
            )
            steps.append(step)
            if not step_passes(step, P99_LIMIT_MS, FAIL_LIMIT):
                break
        wall = perf_counter() - start
        snap = tier.snapshot()
        status = {
            s: snap["by_status"].get(s, 0) - stats0["by_status"].get(s, 0)
            for s in ("shed", "timeout", "degraded")
        }
        batch_requests = snap["batch_requests"] - stats0["batch_requests"]
        pooled = {
            key: np.concatenate([getattr(r, key) for r in rounds])
            for key in ("queue_wait_ms", "late_ms", "batch_sizes")
        }
        everything = rounds + steps
        layers = {
            "serving.queue.wait_p50_ms": percentile(pooled["queue_wait_ms"], 50),
            "serving.queue.wait_p99_ms": percentile(pooled["queue_wait_ms"], 99),
            "serving.tier.batch_size_mean": float(np.mean(pooled["batch_sizes"])),
            "serving.tier.coalesced_frac": (snap["coalesced"] - stats0["coalesced"])
            / max(batch_requests, 1),
            "serving.loadgen.late_p99_ms": percentile(pooled["late_ms"], 99),
            "serving.tier.shed": status["shed"],
            "serving.tier.timeout": status["timeout"],
            "serving.tier.degraded": status["degraded"],
            "serving.ladder.max_qps": interpolate_max_rate(steps, P99_LIMIT_MS, FAIL_LIMIT),
            **cache_hit_fracs(service),
        }
        return Measurement(
            throughput_per_s=median_of(capacity_rates),
            query_rounds=[list(r.latency_ms) for r in rounds],
            attempted=sum(s.sent for s in everything) + capacity["sent"],
            failed=sum(s.failed for s in everything) + capacity["failed"],
            cost=median_of([percentile(r.latency_ms, 50) for r in rounds]),
            wall_s=wall,
            layers=layers,
        )


class ServeRead(Serve):
    name = "serve_read"
    why = (
        "open-loop read-only Poisson+Zipf traffic into a ServingTier at 500 req/s, "
        "plus capacity rounds and a rate ladder; batching and coalescing do the work"
    )


class ServeCheckin(Serve):
    name = "serve_checkin"
    why = (
        "the serve_read traffic with a same-user check-in before every fifth "
        "request: cache misses make relation build and k-NN slates do work"
    )
    checkin_every = 5


# ----------------------------------------------------------------------
# catalogue_500k
# ----------------------------------------------------------------------
SCALE_POIS = 500_000
SCALE_USERS = 48
SCALE_SEQ_LEN = 40
SCALE_N = 16
SCALE_BATCH = 8
SCALE_BATCHES = 4        # train_steps rotates over them
POOL_SIZE = 2000


def scale_catalogue(num_pois: int, seed: int, num_users: int = SCALE_USERS,
                    seq_len: int = SCALE_SEQ_LEN) -> CheckInDataset:
    """A district-clustered catalogue at any size, built vectorized.

    Districts hold more POIs than a negative pool, as a city does, so a
    pool query resolves inside one district.  Users follow uniform
    random itineraries: the index, sampler and encoders care about the
    catalogue's geometry, not about transition structure.
    """
    rng = np.random.default_rng(seed)
    num_clusters = max(8, num_pois // (2 * POOL_SIZE))
    centers = np.stack(
        [rng.uniform(-60.0, 60.0, num_clusters), rng.uniform(-178.0, 178.0, num_clusters)],
        axis=1,
    )
    assign = rng.integers(0, num_clusters, num_pois)
    coords = np.zeros((num_pois + 1, 2))
    coords[1:, 0] = np.clip(centers[assign, 0] + rng.normal(0, 0.02, num_pois), -85.0, 85.0)
    coords[1:, 1] = centers[assign, 1] + rng.normal(0, 0.02, num_pois)
    sequences = {}
    for user in range(1, num_users + 1):
        pois = rng.integers(1, num_pois + 1, size=seq_len)
        times = 1.3e9 + np.cumsum(rng.uniform(600.0, 6 * 3600.0, size=seq_len))
        sequences[user] = UserSequence(user=user, pois=pois, times=times)
    return CheckInDataset(name=f"scale-{num_pois}", poi_coords=coords, sequences=sequences)


def scale_config() -> STiSANConfig:
    return STiSANConfig(
        max_len=SCALE_N, poi_dim=8, geo_dim=8, num_blocks=1, ffn_hidden=32,
        dropout=0.0, quadkey_level=12, quadkey_ngram=4,
    )


def scale_train_config(seed: int) -> TrainConfig:
    return TrainConfig(
        epochs=1, batch_size=SCALE_BATCH, learning_rate=3e-3, num_negatives=8,
        negative_pool=POOL_SIZE, temperature=1.0, seed=seed, loss_shard_size=64,
    )


class Catalogue500k(Workload):
    name = "catalogue_500k"
    #: About 120 rounds would support p90, but on a shared host the
    #: rounds beyond p90 are mostly host stalls; p75 is the program's.
    tail_q = 75.0
    # Each set-up takes 12-20 s, most of it GeographyEncoder.__init__;
    # two keep the run inside its time budget.
    setup_min = 2
    why = (
        "500k POIs: grid index and model build, train_stisan with streaming "
        "negatives and sharded loss, then check_in+recommend_batch at random POIs"
    )

    def inputs(self, seed):
        ds = scale_catalogue(SCALE_POIS, seed)
        train, _ = partition(ds, n=SCALE_N)
        return ds, cycle_to(train, SCALE_BATCH * SCALE_BATCHES)

    def setup(self, inputs, seed):
        ds, windows = inputs
        ds = fresh_copy(ds)
        index = ds.spatial_index()
        model = STiSAN(ds.num_pois, ds.poi_coords, scale_config(), rng=np.random.default_rng(seed))
        model.eval()
        service = RecommendationService(model, ds, max_len=SCALE_N, num_candidates=100)
        retriever = EvalCandidateRetriever(ds, num_candidates=100)
        # Warm-up: one recommend_batch over every user, and one sampler
        # draw over a batch of training targets.
        service.recommend_batch(ds.users(), k=10)
        sampler = NearestNegativeSampler(
            ds, num_negatives=8, pool_size=POOL_SIZE, rng=np.random.default_rng(seed)
        )
        targets = np.stack([w.tgt_pois for w in windows[:SCALE_BATCH]])
        negatives = sampler.sample(targets)
        return {"ds": ds, "index": index, "model": model, "service": service,
                "retriever": retriever, "windows": windows, "seed": seed,
                "sampler_mode": sampler.mode, "targets": targets, "negatives": negatives}

    def targets(self, state):
        return (
            COMMON_TARGETS
            + model_targets(state["model"])
            + index_targets(state["index"])
            + [(state["service"], "recommend_batch", "core.service.recommend_batch", False)]
        )

    def measure(self, state, seconds, checks):
        ds, model, service = state["ds"], state["model"], state["service"]
        retriever, windows, seed = state["retriever"], state["windows"], state["seed"]
        checks.expect(state["sampler_mode"] == "streaming", "sampler is not streaming at 500k POIs")
        targets, negatives = state["targets"], state["negatives"]
        real = targets != 0
        checks.expect(
            not np.any((negatives == targets[..., None]) & real[..., None]),
            "a negative equals its target",
        )
        if service.caches is not None:
            service.caches.reset_stats()
        rng = np.random.default_rng(seed + 11)
        users = ds.users()
        last_times = {u: service.session(u).times[-1] for u in users}
        # Times are scaled to the reference speed, as in train_paper.
        probe = SpeedProbe()
        start = perf_counter()
        # Training (40% of the run), as in train_paper.
        steps = train_steps(
            model, ds, windows, scale_train_config(seed), probe, start + 0.4 * seconds, checks
        )
        rounds, queries = [], 0
        need = samples_needed(self.tail_q)
        while perf_counter() - start < seconds or len(rounds) < need:
            pois = rng.integers(1, ds.num_pois + 1, size=len(users))
            probe.tick()
            t0 = perf_counter()
            for user, poi in zip(users, pois):
                last_times[user] += 600.0
                service.check_in(user, int(poi), last_times[user])
            # Visited POIs stay in the slate: excluding them would widen
            # every k-NN query by the session length, which this loop
            # grows each round, so the cost would drift through the run.
            rows = service.recommend_batch(users, k=10, exclude_visited=False)
            rounds.append((t0, perf_counter() - t0))
            queries += len(users)
            checks.expect(
                all(len(row) == 10 and not any(r.degraded for r in row) for row in rows),
                "recommend_batch returned a short or degraded row",
            )
            slate = retriever.candidates(users[0], int(pois[0]))
            checks.expect(len(slate) == 101, f"slate of width {len(slate)}, not 101")
        probe.tick()
        throughput = 1.0 / median_of([probe.scaled(*step) for step in steps])
        print(f"  {probe.summary()}")
        return Measurement(
            throughput_per_s=throughput,
            query_rounds=[[1e3 * probe.scaled(*r) for r in rounds]],
            attempted=len(steps) + queries,
            failed=0,
            cost=1.0 / throughput,
            wall_s=perf_counter() - start,
            layers=cache_hit_fracs(service),
        )


WORKLOADS = {w.name: w for w in (TrainPaper(), ServeRead(), ServeCheckin(), Catalogue500k())}


def layer_metrics(timer: LayerTimer, measurement: Measurement) -> Dict[str, float]:
    """Per-layer values from the traced phase; layers a workload does
    not exercise read 0."""
    values = {name: 0.0 for name in LAYERS}
    for layer, metric in TIMED_LAYERS.items():
        values[metric] = timer.mean_ms(layer)
    # Batch build excluding the negative sampler it calls.
    values["data.batching.next_ms"] = timer.mean_ms("data.batching.next", self_only=True)
    lookups = timer.calls["data.negatives.pool_lookup"]
    if lookups:
        values["data.negatives.pool_hit_frac"] = 1.0 - timer.calls["data.negatives.pool_query"] / lookups
    values["geo.neighbors.nearest_excluding_calls"] = timer.calls["geo.neighbors.nearest_excluding"]
    # recommend_batch minus its direct children: scoring and slates.
    values["core.service.self_ms"] = timer.mean_ms("core.service.recommend_batch", self_only=True)
    values["core.service.busy_frac"] = (
        timer.total_s["core.service.recommend_batch"] / measurement.wall_s
    )
    values["run.fail_frac"] = measurement.failed / max(measurement.attempted, 1)
    values.update(measurement.layers)
    return values
