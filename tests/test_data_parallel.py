"""Data-parallel training: the bitwise-determinism battery.

The contract under test (``repro.parallel``): ``workers=N`` is
**bitwise identical** to ``workers=1`` — final parameters, loss curve,
``FlatAdam`` moments and checkpoint bytes — for every N, because the
gradient arithmetic is a function of the fixed logical shard
decomposition, never of the worker count.  The suites here prove it
for workers ∈ {1, 2, 4} including ragged last batches and the B < N
degenerate case, across kill-and-resume at *different* worker counts,
and under seeded chaos with per-rank fault streams.

The CI workers matrix runs this file with ``REPRO_WORKERS ∈ {1, 2}``;
tests that only need one multi-worker leg honor that variable so both
the in-process path and the forked path get exercised per leg.
"""

import importlib
import os
import zipfile

import numpy as np
import pytest

from repro.core import STiSANConfig, TrainConfig, validation_split
from repro.core.checkpoint import checkpoint_paths
from repro.core.stisan import STiSAN
from repro.core.trainer import train_stisan
from repro.data import partition
from repro.faults import FaultConfig, SimulatedCrash, fault_injection
from repro.faults import state as _faults_state
from repro.nn import serialization as _serialization
from repro.nn.module import Parameter

# repro.nn re-exports a function named ``tensor`` that shadows the
# submodule attribute; the module object must come from the import system.
_tensor = importlib.import_module("repro.nn.tensor")
from repro.nn.optim import Adam, FlatAdam
from repro.nn.serialization import CheckpointError
from repro.obs import (
    REGISTRY,
    MetricsRegistry,
    TelemetrySink,
    observability,
    read_telemetry,
    strip_timestamps,
)
from repro.obs import spans as _spans
from repro.parallel import (
    DataParallelTrainer,
    clip_flat_grad_norm,
    current_rank,
    install_rank,
    is_root,
    rank_shard_range,
    reduce_shard_grads,
    reduce_shard_losses,
    reset_inherited_state,
    shard_bounds,
    validate_world,
    world_size,
)
from repro.parallel import state as _pstate

MAX_LEN = 10
#: CI matrix leg (REPRO_WORKERS ∈ {1, 2}); tests needing just one
#: multi-worker configuration use this so each leg exercises its path.
ENV_WORKERS = int(os.environ.get("REPRO_WORKERS", "2"))
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


@pytest.fixture(scope="module")
def training_setup(micro_dataset):
    train, _ = partition(micro_dataset, n=MAX_LEN)
    config = TrainConfig(epochs=2, batch_size=4, num_negatives=3, seed=11)
    return micro_dataset, train, config


def fresh_model(dataset, dropout=0.1, max_len=MAX_LEN):
    cfg = STiSANConfig.small(
        max_len=max_len, poi_dim=8, geo_dim=8, num_blocks=1, dropout=dropout
    )
    return STiSAN(dataset.num_pois, dataset.poi_coords, cfg,
                  rng=np.random.default_rng(5))


def assert_params_equal(a, b, equal_nan=False):
    assert set(a) == set(b)
    for name in a:
        assert np.array_equal(a[name], b[name], equal_nan=equal_nan), (
            f"parameter {name} diverged"
        )


def run_parallel(dataset, train, config, workers, **kwargs):
    """One full training run; returns (model, result, trainer)."""
    model = fresh_model(dataset, max_len=len(train[0].src_pois))
    trainer = DataParallelTrainer(
        model, dataset, train, config, workers=workers, **kwargs
    )
    result = trainer.train()
    return model, result, trainer


# ----------------------------------------------------------------------
# Sharding / reduction units
# ----------------------------------------------------------------------
class TestSharding:
    @pytest.mark.parametrize("batch_size", range(0, 14))
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4, 6])
    def test_bounds_partition_the_batch(self, batch_size, num_shards):
        bounds = shard_bounds(batch_size, num_shards)
        assert len(bounds) == num_shards
        assert bounds[0][0] == 0 and bounds[-1][1] == batch_size
        sizes = []
        for (lo, hi), (nlo, _) in zip(bounds, bounds[1:] + [(batch_size, None)]):
            assert lo <= hi == nlo
            sizes.append(hi - lo)
        # Balanced: shard sizes differ by at most one row.
        assert max(sizes) - min(sizes) <= 1

    def test_bounds_are_batch_size_pure(self):
        assert shard_bounds(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]
        assert shard_bounds(2, 4) == [(0, 1), (1, 2), (2, 2), (2, 2)]
        assert shard_bounds(0, 3) == [(0, 0), (0, 0), (0, 0)]

    @pytest.mark.parametrize("world", [1, 2, 4])
    def test_rank_ranges_tile_the_shards(self, world):
        shards = 4
        ranges = [rank_shard_range(r, world, shards) for r in range(world)]
        covered = [s for lo, hi in ranges for s in range(lo, hi)]
        assert covered == list(range(shards))

    def test_invalid_worlds_rejected(self):
        with pytest.raises(ValueError, match="exceeds grad_shards"):
            validate_world(5, 4)
        with pytest.raises(ValueError, match="not divisible"):
            validate_world(3, 4)
        with pytest.raises(ValueError, match="workers"):
            validate_world(0, 4)
        with pytest.raises(ValueError, match="grad_shards"):
            validate_world(1, 0)
        with pytest.raises(ValueError, match="rank"):
            rank_shard_range(2, 2, 4)


class TestReduce:
    def test_reduction_is_deterministic_and_ignores_zero_rows(self):
        rng = np.random.default_rng(0)
        grads = rng.standard_normal((4, 33)).astype(np.float32)
        once = reduce_shard_grads(grads)
        again = reduce_shard_grads(grads.copy())
        assert once.dtype == np.float32
        assert np.array_equal(once, again)
        # Empty logical shards write exact-zero rows; appending them
        # must not perturb a single bit of the reduction.
        padded = np.vstack([grads, np.zeros((2, 33), dtype=np.float32)])
        assert np.array_equal(reduce_shard_grads(padded), once)
        with pytest.raises(ValueError, match="matrix"):
            reduce_shard_grads(grads[0])

    def test_loss_reduction(self):
        losses = np.array([0.5, 0.25, 0.0, 0.125], dtype=np.float32)
        total = reduce_shard_losses(losses)
        assert isinstance(total, float)
        assert total == float(np.sum(losses, dtype=np.float32))

    def test_clip_matches_per_parameter_reference(self):
        rng = np.random.default_rng(3)
        shapes = [(5, 3), (7,), (2, 3, 4), (1,)]
        ref = [Parameter(rng.standard_normal(s).astype(np.float32)) for s in shapes]
        flat_params = [Parameter(p.data.copy()) for p in ref]
        ref_opt = Adam(ref, lr=1e-2)
        flat_opt = FlatAdam(flat_params, lr=1e-2)
        grng = np.random.default_rng(9)
        for p in ref:
            p.grad = (10.0 * grng.standard_normal(p.data.shape)).astype(np.float32)
        for p, q in zip(flat_params, ref):
            p.grad = q.grad.copy()
        ref_norm = ref_opt.clip_grad_norm(1.0)
        flat = np.empty(flat_opt.flat_size, dtype=np.float32)
        flat_opt.write_flat_grads(flat)
        flat_norm = clip_flat_grad_norm(flat, flat_opt.grad_offsets, 1.0)
        assert flat_norm == ref_norm
        offsets = flat_opt.grad_offsets
        for i, p in enumerate(ref):
            seg = flat[offsets[i]:offsets[i + 1]].reshape(p.data.shape)
            assert np.array_equal(seg, p.grad), f"clipped grad {i} diverged"


class TestFlatGradientSurface:
    def test_step_flat_matches_step(self):
        rng = np.random.default_rng(0)
        shapes = [(5, 3), (7,), (2, 3, 4), (1,)]
        a = [Parameter(rng.standard_normal(s).astype(np.float32)) for s in shapes]
        b = [Parameter(p.data.copy()) for p in a]
        opt_a, opt_b = FlatAdam(a, lr=1e-2), FlatAdam(b, lr=1e-2)
        for step in range(6):
            grng = np.random.default_rng(50 + step)
            missing_index = 2 if step == 3 else None
            for i, p in enumerate(a):
                p.grad = (
                    None if i == missing_index
                    else grng.standard_normal(p.data.shape).astype(np.float32)
                )
            flat = np.empty(opt_b.flat_size, dtype=np.float32)
            touched = np.empty(len(b), dtype=np.uint8)
            for i, p in enumerate(b):
                p.grad = None if a[i].grad is None else a[i].grad.copy()
            opt_b.write_flat_grads(flat, touched=touched)
            assert list(touched) == [0 if p.grad is None else 1 for p in b]
            opt_a.step()
            opt_b.step_flat(flat, missing=np.flatnonzero(touched == 0))
            for i in range(len(a)):
                assert np.array_equal(a[i].data, b[i].data), f"param {i} diverged"
        assert opt_a.t == opt_b.t
        state_a, state_b = opt_a.state_dict(), opt_b.state_dict()
        for ma, mb in zip(state_a["m"], state_b["m"]):
            assert np.array_equal(ma, mb)
        for va, vb in zip(state_a["v"], state_b["v"]):
            assert np.array_equal(va, vb)

    def test_shape_and_index_validation(self):
        opt = FlatAdam([Parameter(np.zeros(3, dtype=np.float32))], lr=1e-2)
        with pytest.raises(ValueError, match="float32"):
            opt.write_flat_grads(np.zeros(3, dtype=np.float64))
        with pytest.raises(ValueError, match="float32"):
            opt.step_flat(np.zeros(4, dtype=np.float32))
        with pytest.raises(IndexError, match="out of range"):
            opt.step_flat(np.zeros(3, dtype=np.float32), missing=[5])


# ----------------------------------------------------------------------
# The headline property: workers=N bitwise identical to workers=1
# ----------------------------------------------------------------------
class TestBitwiseAcrossWorkerCounts:
    def _sweep(self, dataset, train, config, worker_counts=(1, 2, 4), **kwargs):
        runs = [
            run_parallel(dataset, train, config, workers, **kwargs)
            for workers in worker_counts
        ]
        ref_model, ref_result, ref_trainer = runs[0]
        for model, result, trainer in runs[1:]:
            assert result.epoch_losses == ref_result.epoch_losses
            assert_params_equal(ref_model.state_dict(), model.state_dict())
            ref_state, state = ref_trainer._optimizer.state_dict(), trainer._optimizer.state_dict()
            assert state["t"] == ref_state["t"]
            for ref_m, m in zip(ref_state["m"], state["m"]):
                assert np.array_equal(ref_m, m)
            for ref_v, v in zip(ref_state["v"], state["v"]):
                assert np.array_equal(ref_v, v)
        return runs

    def test_workers_1_2_4_bitwise_identical(self, training_setup):
        dataset, train, config = training_setup
        self._sweep(dataset, train, config)

    def test_workers_1_2_4_bitwise_on_trimmed_steps(self, trimmed_setup):
        """Each logical shard runs from its own rows' smallest cut."""
        dataset, train, config = trimmed_setup
        self._sweep(dataset, train, config)

    def test_ragged_last_batch(self, training_setup):
        dataset, train, _ = training_setup
        batch_size = next(
            bs for bs in (5, 7, 3) if len(train) % bs != 0 and len(train) > bs
        )
        config = TrainConfig(
            epochs=1, batch_size=batch_size, num_negatives=3, seed=23
        )
        self._sweep(dataset, train, config)

    def test_degenerate_batch_smaller_than_world(self, training_setup):
        """B < N: every batch leaves some logical shards (and therefore
        some ranks) empty; empty shards contribute exact-zero rows."""
        dataset, train, _ = training_setup
        config = TrainConfig(epochs=1, batch_size=2, num_negatives=3, seed=29)
        self._sweep(dataset, train, config, worker_counts=(1, 4))

    def test_grad_clip_path(self, training_setup):
        dataset, train, _ = training_setup
        config = TrainConfig(
            epochs=1, batch_size=4, num_negatives=3, seed=31, grad_clip=0.05
        )
        self._sweep(dataset, train, config, worker_counts=(1, ENV_WORKERS))

    @pytest.mark.parametrize("seed", [1, 7])
    def test_random_configs_property(self, training_setup, seed):
        """Property flavor: random-ish config draws, short runs, still
        bitwise across the worker sweep."""
        dataset, train, _ = training_setup
        rng = np.random.default_rng(seed)
        config = TrainConfig(
            epochs=1,
            batch_size=int(rng.integers(2, 7)),
            num_negatives=int(rng.integers(2, 5)),
            seed=int(rng.integers(0, 1000)),
            learning_rate=float(rng.choice([1e-3, 5e-3])),
        )
        self._sweep(dataset, train, config, worker_counts=(1, ENV_WORKERS, 4))

    def test_validation_and_early_stopping_parity(self, training_setup):
        dataset, train, _ = training_setup
        kept, val = validation_split(
            train, fraction=0.25, rng=np.random.default_rng(0)
        )
        config = TrainConfig(epochs=3, batch_size=4, num_negatives=3, seed=41)
        runs = [
            run_parallel(dataset, kept, config, workers,
                         validation=val, patience=1)
            for workers in (1, ENV_WORKERS)
        ]
        (m1, r1, _), (mn, rn, _) = runs
        assert r1.validation_metrics == rn.validation_metrics
        assert r1.stopped_early == rn.stopped_early
        assert r1.best_epoch == rn.best_epoch
        assert_params_equal(m1.state_dict(), mn.state_dict())

    def test_telemetry_stream_identical_across_workers(self, training_setup, tmp_path):
        dataset, train, config = training_setup
        streams = []
        # Index the filename, not the worker count: REPRO_WORKERS=1 makes
        # both legs workers=1, and the sink must not append to leg 0's file.
        for leg, workers in enumerate((1, ENV_WORKERS)):
            path = tmp_path / f"telemetry-{leg}-w{workers}.jsonl"
            sink = TelemetrySink(path)
            run_parallel(dataset, train, config, workers, telemetry=sink)
            sink.close()
            streams.append(strip_timestamps(read_telemetry(path)))
        assert streams[0] == streams[1]


# ----------------------------------------------------------------------
# Checkpoints: worker-count-independent bytes and cross-count resume
# ----------------------------------------------------------------------
def _zip_members(path):
    with zipfile.ZipFile(path) as archive:
        return {name: archive.read(name) for name in archive.namelist()}


class TestCheckpointsAcrossWorkerCounts:
    def test_checkpoint_bytes_worker_count_independent(self, training_setup, tmp_path):
        dataset, train, config = training_setup
        files = {}
        for workers in (1, ENV_WORKERS):
            ckpt_dir = tmp_path / f"w{workers}"
            run_parallel(dataset, train, config, workers,
                         checkpoint_dir=ckpt_dir, checkpoint_every=2)
            files[workers] = checkpoint_paths(ckpt_dir)
        names = lambda paths: [p.name for p in paths]
        assert names(files[1]) == names(files[ENV_WORKERS])
        for p1, pn in zip(files[1], files[ENV_WORKERS]):
            assert p1.read_bytes() == pn.read_bytes(), (
                f"checkpoint {p1.name} bytes differ between workers=1 "
                f"and workers={ENV_WORKERS}"
            )

    @pytest.mark.parametrize("crash_workers,resume_workers", [(4, 1), (1, 4)])
    def test_kill_and_resume_across_worker_counts(
        self, training_setup, tmp_path, crash_workers, resume_workers
    ):
        dataset, train, config = training_setup
        baseline_model, baseline, _ = run_parallel(dataset, train, config, 1)

        crash_step = 3
        ckpt_dir = tmp_path / f"{crash_workers}to{resume_workers}"
        with pytest.raises(SimulatedCrash):
            with fault_injection(seed=0, crash_at_step=crash_step):
                run_parallel(dataset, train, config, crash_workers,
                             checkpoint_dir=ckpt_dir, checkpoint_every=1)

        resumed_model, resumed, _ = run_parallel(
            dataset, train, config, resume_workers,
            checkpoint_dir=ckpt_dir, checkpoint_every=1, resume=True,
        )
        assert resumed.resumed_from_step == crash_step
        assert resumed.epoch_losses == baseline.epoch_losses
        assert_params_equal(baseline_model.state_dict(), resumed_model.state_dict())

    def test_corrupt_newest_falls_back_under_workers(self, training_setup, tmp_path):
        dataset, train, config = training_setup
        baseline_model, baseline, _ = run_parallel(dataset, train, config, 1)

        ckpt_dir = tmp_path / "corrupt"
        with pytest.raises(SimulatedCrash):
            with fault_injection(seed=0, crash_at_step=4):
                run_parallel(dataset, train, config, ENV_WORKERS,
                             checkpoint_dir=ckpt_dir, checkpoint_every=1)
        paths = checkpoint_paths(ckpt_dir)
        assert len(paths) >= 2
        newest = paths[0]
        newest.write_bytes(newest.read_bytes()[: newest.stat().st_size // 2])

        resumed_model, resumed, _ = run_parallel(
            dataset, train, config, ENV_WORKERS,
            checkpoint_dir=ckpt_dir, checkpoint_every=1, resume=True,
        )
        # The torn newest file (step 4) is skipped; its predecessor is
        # restored, replayed, and the run still lands bitwise on target.
        assert resumed.resumed_from_step == 3
        assert resumed.epoch_losses == baseline.epoch_losses
        assert_params_equal(baseline_model.state_dict(), resumed_model.state_dict())

    def test_sequential_trainer_refuses_parallel_checkpoint(
        self, training_setup, tmp_path
    ):
        """The parallel fingerprint carries grad_shards; the sequential
        trainer must refuse it (different gradient arithmetic) rather
        than silently resume."""
        dataset, train, config = training_setup
        ckpt_dir = tmp_path / "parallel"
        run_parallel(dataset, train, config, 1,
                     checkpoint_dir=ckpt_dir, checkpoint_every=2)
        with pytest.raises(CheckpointError, match="grad_shards"):
            train_stisan(fresh_model(dataset), dataset, train, config,
                         checkpoint_dir=ckpt_dir, resume=True)


# ----------------------------------------------------------------------
# Chaos under parallelism: per-rank seeded fault streams
# ----------------------------------------------------------------------
class TestChaosUnderParallelism:
    def test_for_rank_derivation(self):
        base = FaultConfig(seed=CHAOS_SEED, op_nan_rate=0.1, crash_at_step=7)
        assert base.for_rank(0) is base
        derived = base.for_rank(1)
        assert derived.seed != base.seed
        assert derived.op_nan_rate == base.op_nan_rate
        # crash_at_step fires on the checkpoint site, which only the
        # root replica runs — non-root configs must drop it.
        assert derived.crash_at_step is None
        assert base.for_rank(1) == derived  # deterministic
        assert base.for_rank(2) != derived  # independent per rank
        with pytest.raises(ValueError, match="rank"):
            base.for_rank(-1)

    def test_chaos_runs_reproduce_bitwise(self, training_setup):
        """Two same-seed chaos runs at the same worker count hit the
        identical injected-fault sites: rank 0's injection log matches
        entry-for-entry and the final parameters (which fold in every
        replica's possibly-corrupted gradients) are bitwise equal."""
        dataset, train, _ = training_setup
        config = TrainConfig(epochs=1, batch_size=4, num_negatives=3, seed=17)

        def chaos_run():
            with fault_injection(seed=CHAOS_SEED, op_nan_rate=0.02) as plan:
                model, result, _ = run_parallel(
                    dataset, train, config, ENV_WORKERS
                )
            return model.state_dict(), result.epoch_losses, list(plan.log)

        params_a, losses_a, log_a = chaos_run()
        params_b, losses_b, log_b = chaos_run()
        assert log_a == log_b
        assert losses_a == losses_b or all(
            np.isnan(a) and np.isnan(b) or a == b
            for a, b in zip(losses_a, losses_b)
        )
        assert_params_equal(params_a, params_b, equal_nan=True)


# ----------------------------------------------------------------------
# Fork hygiene and rank state
# ----------------------------------------------------------------------
class TestForkHygiene:
    def test_rank_state_roundtrip(self):
        assert current_rank() == 0 and world_size() == 1 and is_root()
        try:
            install_rank(2, 4)
            assert current_rank() == 2
            assert world_size() == 4
            assert not is_root()
            assert _pstate._installed_pid == os.getpid()
        finally:
            install_rank(0, 1)
        with pytest.raises(ValueError, match="rank"):
            install_rank(4, 4)

    def test_reset_inherited_state_scrubs_every_seam(self):
        sentinel = object()
        with fault_injection(op_nan_rate=0.5):
            _tensor._arena = sentinel
            _tensor._op_profiler = sentinel
            _spans._stack_of_thread().append(sentinel)
            _spans._finished.append(sentinel)
            REGISTRY.counter("repro_test_leak_total").inc()
            assert _faults_state._plan is not None
            assert _tensor._fault_hook is not None
            assert _serialization._io_fault_hook is not None
            reset_inherited_state()
            # Everything semantically per-process is gone: the arena,
            # both fault hooks, the plan, spans, profiler, and metrics.
            assert _tensor._arena is None
            assert _tensor._fault_hook is None
            assert _tensor._op_profiler is None
            assert _serialization._io_fault_hook is None
            assert _faults_state._plan is None
            assert len(_spans._stack_of_thread()) == 0 and len(_spans._finished) == 0
            assert "repro_test_leak_total" not in [
                m["name"] for m in REGISTRY.to_json()["metrics"]
            ]
        # Exiting the context restores the pre-block (empty) state.
        assert _faults_state._plan is None

    def test_trainer_restores_rank_state(self, training_setup):
        dataset, train, config = training_setup
        run_parallel(dataset, train, config, ENV_WORKERS)
        assert current_rank() == 0 and world_size() == 1


# ----------------------------------------------------------------------
# Deterministic metrics merge
# ----------------------------------------------------------------------
class TestMetricsMerge:
    def _payload(self, build):
        registry = MetricsRegistry()
        build(registry)
        return registry.to_json()

    def test_merge_json_accumulates(self):
        target = MetricsRegistry()
        target.counter("repro_batches_total").inc(3)
        target.gauge("repro_loss").set(1.0)
        target.histogram("repro_ms", buckets=(1.0, 10.0)).observe(0.5)
        payload = self._payload(lambda r: (
            r.counter("repro_batches_total").inc(2),
            r.gauge("repro_loss").set(2.0),
            r.histogram("repro_ms", buckets=(1.0, 10.0)).observe(5.0),
        ))
        target.merge_json(payload)
        merged = target.to_json()["metrics"]
        [counter] = [m for m in merged if m["name"] == "repro_batches_total"]
        assert counter["value"] == 5
        [gauge] = [m for m in merged if m["name"] == "repro_loss"]
        assert gauge["value"] == 2.0  # last writer (rank order) wins
        [hist] = [m for m in merged if m["name"] == "repro_ms"]
        assert hist["count"] == 2

    def test_merge_payloads_is_order_deterministic(self):
        payloads = [
            self._payload(lambda r, i=i: (
                r.counter("repro_steps_total").inc(i + 1),
                r.gauge("repro_rank_loss").set(float(i)),
            ))
            for i in range(3)
        ]

        def merge(ordered):
            registry = MetricsRegistry()
            for payload in ordered:
                registry.merge_json(payload)
            return registry.to_json()

        once = merge(payloads)
        again = merge(payloads)
        assert once == again
        # The rank-order rule is what makes the merged gauge value
        # deterministic: reversing the payload order changes it.
        reversed_merge = merge(payloads[::-1])
        [gauge] = [m for m in once["metrics"] if m["name"] == "repro_rank_loss"]
        [rgauge] = [
            m for m in reversed_merge["metrics"] if m["name"] == "repro_rank_loss"
        ]
        assert gauge["value"] == 2.0 and rgauge["value"] == 0.0
        [counter] = [m for m in once["metrics"] if m["name"] == "repro_steps_total"]
        assert counter["value"] == 6  # counters add regardless of order

    def test_parallel_run_metrics_match_single_worker(self, training_setup):
        dataset, train, config = training_setup
        views = {}
        for workers in (1, ENV_WORKERS):
            with observability():
                REGISTRY.reset()
                _, result, _ = run_parallel(dataset, train, config, workers)
                snapshot = REGISTRY.to_json()
            REGISTRY.reset()
            views[workers] = {
                m["name"]: m["value"]
                for m in snapshot["metrics"]
                if m["kind"] in ("counter", "gauge")
                and m["name"].startswith("repro_train")
            }
        assert views[1] == views[ENV_WORKERS]
        assert views[1]["repro_train_epochs_total"] == config.epochs


# ----------------------------------------------------------------------
# One epoch loop serves both trainers
# ----------------------------------------------------------------------
def _run_shape(run, tmp_path, leg):
    """Event kinds and keys, span names and ``repro_train_*`` metric
    names of one observed training run; no values."""
    path = tmp_path / f"telemetry-{leg}.jsonl"
    sink = TelemetrySink(path)
    with observability():
        REGISTRY.reset()
        run(sink, tmp_path / f"ckpt-{leg}")
        metrics = REGISTRY.to_json()["metrics"]
    REGISTRY.reset()
    sink.close()
    events = [(r["event"], sorted(r)) for r in read_telemetry(path)]
    spans = {m["labels"]["span"] for m in metrics if m["name"] == "repro_span_seconds"}
    train_metrics = {m["name"] for m in metrics if m["name"].startswith("repro_train")}
    return events, spans, train_metrics


class TestSharedEpochLoop:
    def test_both_trainers_emit_one_structure(self, training_setup, tmp_path):
        """``train_stisan`` and ``DataParallelTrainer`` run one epoch
        loop: the same telemetry records with the same keys, the same
        spans and the same ``repro_train_*`` metrics.  Values are not
        compared, because the two loss families differ."""
        dataset, train, _ = training_setup
        kept, val = validation_split(
            train, fraction=0.25, rng=np.random.default_rng(0)
        )
        config = TrainConfig(epochs=2, batch_size=4, num_negatives=3, seed=41)
        options = dict(validation=val, patience=1, checkpoint_every=3)

        def sequential(sink, ckpt_dir):
            train_stisan(fresh_model(dataset), dataset, kept, config,
                         telemetry=sink, checkpoint_dir=ckpt_dir, **options)

        def parallel(sink, ckpt_dir):
            DataParallelTrainer(fresh_model(dataset), dataset, kept, config,
                                workers=1, telemetry=sink,
                                checkpoint_dir=ckpt_dir, **options).train()

        seq = _run_shape(sequential, tmp_path, "sequential")
        par = _run_shape(parallel, tmp_path, "parallel")
        events, spans, train_metrics = seq
        assert [kind for kind, _ in events][:2] == ["train_start", "batch"]
        assert {"epoch", "validation", "train_end"} <= {kind for kind, _ in events}
        assert {"train.epoch", "train.batch", "train.forward", "train.backward",
                "train.step", "train.validate"} <= spans
        assert {"repro_train_batches_total", "repro_train_epochs_total"} <= train_metrics
        assert par == seq


# ----------------------------------------------------------------------
# Constructor / platform errors
# ----------------------------------------------------------------------
class TestTrainerValidation:
    def test_invalid_worker_geometry(self, training_setup):
        dataset, train, config = training_setup
        model = fresh_model(dataset)
        with pytest.raises(ValueError, match="exceeds grad_shards"):
            DataParallelTrainer(model, dataset, train, config, workers=8)
        with pytest.raises(ValueError, match="not divisible"):
            DataParallelTrainer(model, dataset, train, config, workers=3)
        with pytest.raises(ValueError, match="checkpoint_dir"):
            DataParallelTrainer(
                model, dataset, train, config, workers=1, checkpoint_every=2
            )
        with pytest.raises(ValueError, match="resume"):
            DataParallelTrainer(
                model, dataset, train, config, workers=1, resume=True
            )
