"""Training throughput: the fused kernels vs their primitive-op oracles.

The claim under test: running attention/LayerNorm as the one-op
kernels of ``repro.nn.fused``, stepping with the flat-buffer
``FlatAdam`` and recycling backward scratch through the gradient arena
buys at least 1.8x training steps/sec at the paper's sequence shape
(n = 100, d = 64, N = 4 IAABs) over the primitive op chains +
per-parameter Adam.  The reference leg patches the test oracles
(``fused.reference_causal_attention``, ``functional.layer_norm``) over
the kernels, the same seam ``tests/test_fused.py`` uses.

Both legs run the *same* numbers: the kernel forward is bitwise
identical to the oracle chain and FlatAdam is bitwise identical to
Adam, so the first step's loss must match exactly between legs — the
benchmark asserts that too, making it a cheap end-to-end equivalence
canary at a shape the unit suites don't cover.

A second microbenchmark prices the ``row_sums`` row-sparse scatter-add
(embedding backward) against the dense ``np.add.at`` ufunc path it
replaced, at training shape, asserting both the speedup and that the
densified result is bitwise equal.

A third benchmark sweeps ``repro.parallel`` over worker counts
{1, 2, 4}: the epoch loss must be **bitwise identical** across the
sweep on any hardware (that part always gates), and on machines with
at least 4 usable cores the 4-worker leg must clear the ≥2.5×
steps/sec scaling gate.  On smaller machines the sweep still runs and
records its numbers, but the scaling gate is reported as not
enforceable — forked replicas time-slicing one core cannot speed
anything up, and pretending otherwise would just burn CI minutes.

Results are persisted to ``benchmarks/results/BENCH_train.json``.
"""

import contextlib
import math
import os
import resource
import time
from unittest import mock

from common import QUICK, banner, dataset, persist, results_store, train_config

import numpy as np

from repro.core import STiSAN, STiSANConfig
from repro.core.loss import weighted_bce_loss
from repro.data import partition
from repro.data.batching import BatchIterator
from repro.data.negatives import NearestNegativeSampler
from repro.nn import functional as F
from repro.nn import fused
from repro.nn.functional import row_sums
from repro.nn.optim import Adam, FlatAdam
from repro.nn.tensor import grad_arena
from repro.parallel import DataParallelTrainer

# Paper sequence shape (Section IV-D), at reproduction-scale width:
# n = 100 check-ins per window, d = 64 = 32 POI (+) 32 GPS, N = 4 IAABs.
MAX_LEN = 32 if QUICK else 100
DIM_HALF = 16 if QUICK else 32
NUM_BLOCKS = 2 if QUICK else 4
WARMUP_STEPS = 1 if QUICK else 2
TIMED_STEPS = 3 if QUICK else 6

#: The tentpole's acceptance bar for fused + FlatAdam + arena.
MIN_SPEEDUP = 1.8

#: Data-parallel scaling gate: steps/sec at 4 workers vs 1 worker,
#: enforced when the machine actually has 4 cores to scale onto.
WORKER_SWEEP = (1, 2, 4)
PARALLEL_MIN_SPEEDUP = 2.5
SWEEP_BATCHES = 4 if QUICK else 8


def _peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux; it is a process-lifetime high-water mark,
    # so per-leg readings are only meaningful in run order.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextlib.contextmanager
def _oracle_kernels():
    with mock.patch.object(
        fused, "fused_causal_attention", fused.reference_causal_attention
    ), mock.patch.object(fused, "layer_norm", F.layer_norm):
        yield


def run_leg(reference: bool = False) -> dict:
    """Train for a fixed number of steps; return timing + first-step loss.

    ``reference=True`` runs the oracle op chains with per-parameter
    ``Adam`` and no gradient arena; otherwise the kernels, ``FlatAdam``
    and the arena.
    """
    ds = dataset("gowalla")
    examples, _ = partition(ds, n=MAX_LEN)
    cfg = STiSANConfig(
        max_len=MAX_LEN,
        poi_dim=DIM_HALF,
        geo_dim=DIM_HALF,
        num_blocks=NUM_BLOCKS,
        ffn_hidden=4 * DIM_HALF,
        dropout=0.2,
        quadkey_level=14,
        quadkey_ngram=4,
    )
    model = STiSAN(ds.num_pois, ds.poi_coords, cfg, rng=np.random.default_rng(7))
    tc = train_config(epochs=1)
    rng = np.random.default_rng(tc.seed)
    sampler = NearestNegativeSampler(
        ds, num_negatives=tc.num_negatives, pool_size=tc.negative_pool, rng=rng
    )
    optimizer_cls = Adam if reference else FlatAdam
    optimizer = optimizer_cls(model.parameters(), lr=tc.learning_rate)
    model.train()

    def batches():
        while True:  # cycle epochs until the step budget is spent
            iterator = BatchIterator(
                examples, batch_size=tc.batch_size, sampler=sampler, rng=rng
            )
            yield from iterator.iter_order(iterator.epoch_order())

    step_times = []
    first_loss = None
    # Reference leg runs unpooled, exactly like the pre-fusion trainer.
    kernels = _oracle_kernels() if reference else contextlib.nullcontext()
    arena_ctx = contextlib.nullcontext(None) if reference else grad_arena()
    with kernels, arena_ctx as arena:
        stream = batches()
        for step in range(WARMUP_STEPS + TIMED_STEPS):
            batch = next(stream)
            t0 = time.perf_counter()
            pos, neg = model.forward_train(
                batch.src, batch.times, batch.tgt, batch.negatives
            )
            loss = weighted_bce_loss(
                pos, neg, batch.target_mask, temperature=tc.temperature
            )
            optimizer.zero_grad()
            loss.backward()
            if tc.grad_clip:
                optimizer.clip_grad_norm(tc.grad_clip)
            optimizer.step()
            if arena is not None:
                arena.reset()
            elapsed = time.perf_counter() - t0
            if first_loss is None:
                first_loss = float(loss.data)
            if step >= WARMUP_STEPS:
                step_times.append(elapsed)
    mean_step = float(np.mean(step_times))
    return {
        "steps_per_sec": 1.0 / mean_step,
        "mean_step_s": mean_step,
        "timed_steps": TIMED_STEPS,
        "first_step_loss": first_loss,
        "peak_rss_mb": _peak_rss_mb(),
    }


def run_throughput():
    # Reference first: peak RSS is monotonic, so the unfused leg's
    # reading is not inflated by the fused leg's allocations.
    return {"reference": run_leg(reference=True), "fused": run_leg()}


def test_train_throughput(benchmark):
    legs = benchmark.pedantic(run_throughput, rounds=1, iterations=1)
    ref, fus = legs["reference"], legs["fused"]
    speedup = fus["steps_per_sec"] / ref["steps_per_sec"]
    banner(f"Training throughput — n={MAX_LEN}, d={2 * DIM_HALF}, N={NUM_BLOCKS}")
    for name, leg in legs.items():
        print(
            f"{name:10s} {leg['steps_per_sec']:6.3f} steps/s "
            f"({leg['mean_step_s'] * 1e3:7.1f} ms/step, "
            f"peak RSS {leg['peak_rss_mb']:7.1f} MB)"
        )
    print(f"{'speedup':10s} {speedup:6.2f}x (gate: >= {MIN_SPEEDUP}x)")
    persist(
        "BENCH_train",
        {**legs, "speedup": {"steps_per_sec_ratio": speedup}},
        max_len=MAX_LEN, dim=2 * DIM_HALF, num_blocks=NUM_BLOCKS,
    )
    # Fused forward is bitwise-identical and both legs share every RNG
    # stream, so the first step must produce the exact same loss.
    assert fus["first_step_loss"] == ref["first_step_loss"], (
        f"fused first-step loss {fus['first_step_loss']!r} != "
        f"reference {ref['first_step_loss']!r}"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"fused training speedup {speedup:.2f}x below the {MIN_SPEEDUP}x gate"
    )


def run_scatter():
    rng = np.random.default_rng(0)
    num_rows = 4096                      # POI vocabulary at bench scale
    n = 32 * MAX_LEN                     # one batch of flattened windows
    dim = 2 * DIM_HALF
    idx = rng.integers(0, num_rows, size=n)
    grad = rng.standard_normal((n, dim)).astype(np.float32)

    def add_at():
        out = np.zeros((num_rows, dim), dtype=np.float32)
        np.add.at(out, idx, grad)
        return out

    def segsum():
        return row_sums(idx, grad, num_rows)

    repeats = 3 if QUICK else 10
    times = {"add_at": [], "segment_sum": []}
    for _ in range(repeats):
        t0 = time.perf_counter()
        expected = add_at()
        times["add_at"].append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        got = segsum()
        times["segment_sum"].append(time.perf_counter() - t0)
    return {
        "add_at_s": min(times["add_at"]),
        "segment_sum_s": min(times["segment_sum"]),
        "bitwise_equal": bool(np.array_equal(expected, got.dense())),
    }


def test_scatter_microbench(benchmark):
    report = benchmark.pedantic(run_scatter, rounds=1, iterations=1)
    speedup = report["add_at_s"] / report["segment_sum_s"]
    banner("Embedding backward — row_sums vs np.add.at")
    print(
        f"np.add.at {report['add_at_s'] * 1e6:8.1f} us   "
        f"row_sums {report['segment_sum_s'] * 1e6:8.1f} us   "
        f"speedup {speedup:5.2f}x"
    )
    persist("BENCH_scatter", {"batch_shape": {**report, "speedup": speedup}})
    assert report["bitwise_equal"], "row_sums diverged from np.add.at"
    # The CSR selection-matrix path must actually beat the ufunc scatter.
    assert speedup >= 1.5, f"scatter speedup {speedup:.2f}x below 1.5x"


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux fallback
        return os.cpu_count() or 1


def run_worker_leg(workers: int) -> dict:
    """Train one epoch over a fixed batch budget at the given worker count."""
    ds = dataset("gowalla")
    examples, _ = partition(ds, n=MAX_LEN)
    tc = train_config(epochs=1)
    subset = examples[: tc.batch_size * SWEEP_BATCHES]
    cfg = STiSANConfig(
        max_len=MAX_LEN,
        poi_dim=DIM_HALF,
        geo_dim=DIM_HALF,
        num_blocks=NUM_BLOCKS,
        ffn_hidden=4 * DIM_HALF,
        dropout=0.2,
        quadkey_level=14,
        quadkey_ngram=4,
    )
    model = STiSAN(ds.num_pois, ds.poi_coords, cfg, rng=np.random.default_rng(7))
    steps = math.ceil(len(subset) / tc.batch_size)
    t0 = time.perf_counter()
    result = DataParallelTrainer(model, ds, subset, tc, workers=workers).train()
    wall = time.perf_counter() - t0
    return {
        "workers": workers,
        "steps": steps,
        "wall_s": wall,
        "steps_per_sec": steps / wall,
        "epoch_loss": result.epoch_losses[0],
    }


def run_worker_sweep():
    return {f"workers{n}": run_worker_leg(n) for n in WORKER_SWEEP}


def test_worker_scaling(benchmark):
    legs = benchmark.pedantic(run_worker_sweep, rounds=1, iterations=1)
    cores = _usable_cores()
    gate_enforced = cores >= max(WORKER_SWEEP)
    base = legs[f"workers{WORKER_SWEEP[0]}"]
    banner(
        f"Data-parallel scaling — n={MAX_LEN}, d={2 * DIM_HALF}, "
        f"N={NUM_BLOCKS}, {cores} usable core(s)"
    )
    for name, leg in legs.items():
        print(
            f"{name:10s} {leg['steps_per_sec']:6.3f} steps/s "
            f"({leg['wall_s']:6.2f} s wall, loss {leg['epoch_loss']!r})"
        )
    scaling = legs[f"workers{max(WORKER_SWEEP)}"]["steps_per_sec"] / base["steps_per_sec"]
    print(
        f"{'scaling':10s} {scaling:6.2f}x at {max(WORKER_SWEEP)} workers "
        f"(gate: >= {PARALLEL_MIN_SPEEDUP}x, "
        f"{'enforced' if gate_enforced else f'needs >= {max(WORKER_SWEEP)} cores'})"
    )
    # Fold the sweep into the existing BENCH_train record: ResultsStore.save
    # rewrites the file wholesale, so re-persist the throughput rows too.
    try:
        prior = results_store().load("BENCH_train").rows
    except FileNotFoundError:
        prior = {}
    persist(
        "BENCH_train",
        {
            **prior,
            **legs,
            "worker_scaling": {
                "steps_per_sec_ratio": scaling,
                "usable_cores": cores,
                "gate": PARALLEL_MIN_SPEEDUP,
                "gate_enforced": gate_enforced,
            },
        },
        max_len=MAX_LEN, dim=2 * DIM_HALF, num_blocks=NUM_BLOCKS,
    )
    # The determinism contract gates on every machine: the sharded
    # reduction makes the loss curve independent of the worker count.
    for name, leg in legs.items():
        assert leg["epoch_loss"] == base["epoch_loss"], (
            f"{name} epoch loss {leg['epoch_loss']!r} != "
            f"workers{WORKER_SWEEP[0]} loss {base['epoch_loss']!r}"
        )
    # The scaling gate only means something when there are cores to
    # scale onto; fork-based replicas on one core just time-slice.
    if gate_enforced:
        assert scaling >= PARALLEL_MIN_SPEEDUP, (
            f"data-parallel scaling {scaling:.2f}x at {max(WORKER_SWEEP)} "
            f"workers below the {PARALLEL_MIN_SPEEDUP}x gate"
        )
