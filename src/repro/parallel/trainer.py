"""Multi-process data-parallel training with bitwise determinism.

:class:`DataParallelTrainer` runs :func:`repro.core.trainer.train_stisan`'s
epoch loop (``repro.core.trainer._EpochLoop``: resume, telemetry,
checkpoints, validation, early stopping) on N worker processes; what
this module adds is only the per-batch step, modeled on the classic
multi-replica loop (shard the batch, per-replica backward,
``all_reduce_and_rescale``, identical step) with ``multiprocessing`` +
shared memory standing in for CUDA replicas:

1. the parent runs the loop's prologue, which prepares (and, on
   resume, restores) the canonical model, ``FlatAdam`` optimizer,
   trainer RNG and early-stopping state, then **forks** N−1 children —
   every replica starts bitwise identical;
2. every rank runs the *same* data pipeline (one canonical RNG drives
   the epoch shuffle and the negative draws for the **full** batch, so
   all RNG streams stay in lockstep and are worker-count independent);
3. each batch is decomposed into ``grad_shards`` logical shards
   (:mod:`repro.parallel.sharding`) whose contents depend only on the
   batch size; rank r forwards/backwards its contiguous run of shards
   on the fused engine and writes each shard's flat gradient (in
   ``FlatAdam``'s layout) into its row of the shared reduce buffer;
4. after a barrier, **every** rank performs the same fixed-order
   reduction over the ``(F, P)`` shard matrix
   (:func:`repro.parallel.reduce.reduce_shard_grads`), clips, and steps
   its own ``FlatAdam`` replica with :meth:`FlatAdam.step_flat` — the
   replicas stay bitwise identical without ever broadcasting
   parameters.

Only rank 0 writes checkpoints and telemetry, opens spans and bumps the
``repro_train_*`` metrics; every rank validates and early-stops, so
control flow stays in lockstep.

Because the shard decomposition, the reduction order, the loss
normalizer (the *global* batch's target count) and the per-``(step,
shard)`` dropout streams are all independent of the worker count,
``workers=N`` reproduces ``workers=1`` **bitwise** — parameters, loss
curve, optimizer moments and checkpoint bytes — for every N
(``tests/test_data_parallel.py``).  Checkpoints carry one canonical
RNG/shuffle state, so a run checkpointed at ``workers=4`` resumes at
``workers=1`` (and vice versa) and continues exactly like the
uninterrupted run.

Platform notes: multi-worker mode requires the ``fork`` start method
(Linux, macOS with default interpreter settings); ``workers=1`` runs
fully in-process on any platform and is the reference semantics the
multi-worker legs are tested against.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import traceback
from typing import Callable, List, Optional

import numpy as np

from ..core.checkpoint import collect_module_rngs
from ..core.config import TrainConfig
from ..core.loss import weighted_bce_loss
from ..core.stisan import STiSAN
from ..core.trainer import TrainResult, _EpochLoop
from ..data.batching import Batch
from ..data.sequences import EvalExample, SequenceExample
from ..data.types import CheckInDataset
from ..faults import fault_injection
from ..faults import state as _faults
from ..nn.tensor import GradArena
from ..obs import REGISTRY, TelemetrySink
from ..obs import state as _obs
from . import state as _pstate
from .reduce import clip_flat_grad_norm, reduce_shard_grads, reduce_shard_losses
from .sharding import rank_shard_range, shard_bounds, validate_world
from .shm import LocalReduceBuffer, SharedReduceBuffer

__all__ = ["DataParallelTrainer", "WorkerCrashError"]

#: Default logical shard count — fixed independently of the worker
#: count (it bounds usable workers and is part of the checkpoint
#: fingerprint, so the gradient arithmetic never depends on N).
DEFAULT_GRAD_SHARDS = 4

#: Stream id mixed into every derived per-(step, shard) dropout seed so
#: the streams never collide with other seeded generators in the repo.
_DROPOUT_STREAM = 0x5D

#: Seconds a rank waits at a barrier before the run is declared broken.
_BARRIER_TIMEOUT_S = 300.0


class WorkerCrashError(RuntimeError):
    """A worker process died or desynchronized mid-training."""


def _seed_shard_rngs(
    generators: List[np.random.Generator], seed: int, step: int, shard: int
) -> None:
    """Re-key the model's dropout generators for one (step, shard).

    Sequential training lets dropout noise stream from the generators'
    evolving state; under data parallelism that evolution would depend
    on *which* shards a process computes.  Instead each shard's forward
    draws from a stream derived from ``(seed, global_step, shard)``
    alone — a pure function of worker-count-independent quantities — so
    the noise (and therefore every gradient bit) is identical no matter
    which process runs the shard.
    """
    for index, generator in enumerate(generators):
        fresh = np.random.default_rng([_DROPOUT_STREAM, seed, step, shard, index])
        generator.bit_generator.state = fresh.bit_generator.state


class DataParallelTrainer:
    """Shard-batch / all-reduce / identical-step training over N processes.

    Takes :func:`repro.core.trainer.train_stisan`'s arguments and runs
    its epoch loop (loss curve, early stopping, telemetry, crash-safe
    checkpoints) with two extra knobs: ``workers`` (process count) and
    ``grad_shards`` (the fixed logical shard count; must be a multiple
    of every worker count the run will ever use — it is fingerprinted
    into checkpoints).
    """

    def __init__(
        self,
        model: STiSAN,
        dataset: CheckInDataset,
        examples: List[SequenceExample],
        config: Optional[TrainConfig] = None,
        *,
        workers: int = 1,
        grad_shards: int = DEFAULT_GRAD_SHARDS,
        validation: Optional[List[EvalExample]] = None,
        patience: int = 3,
        num_candidates: int = 100,
        telemetry: Optional[TelemetrySink] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 0,
        resume: bool = False,
        on_epoch_end: Optional[Callable[[int, float], None]] = None,
    ):
        validate_world(workers, grad_shards)
        if config is not None and config.loss_shard_size:
            # Logical grad shards already bound per-worker loss memory,
            # and stacking the two sharding schemes would change which
            # float32 sums the determinism contract pins.
            raise ValueError(
                "loss_shard_size is not supported with data-parallel "
                "training; grad_shards already bounds per-shard loss memory"
            )
        self.model = model
        self.workers = workers
        self.grad_shards = grad_shards
        # The worker count is deliberately NOT part of the fingerprint or
        # the checkpoint info: checkpoint BYTES are part of the
        # workers=N ≡ workers=1 contract, so nothing N-dependent may be
        # written.  grad_shards IS, because it shapes the arithmetic.
        self._loop = _EpochLoop(
            model, dataset, examples, config,
            on_epoch_end=on_epoch_end,
            validation=validation,
            patience=patience,
            num_candidates=num_candidates,
            telemetry=telemetry,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            resume=resume,
            fingerprint_extra={"grad_shards": grad_shards},
            checkpoint_info={"trainer": "data_parallel", "grad_shards": grad_shards},
            before_checkpoint=self._canonicalize_rngs,
        )
        self.config = self._loop.config

    def _canonicalize_rngs(self, global_step: int) -> None:
        # Rank 0's in-memory dropout generator states reflect whichever
        # shard it computed last — an N-dependent quantity — while every
        # consumer re-keys per (step, shard) before drawing, so the
        # stored state only has to be deterministic.
        _seed_shard_rngs(collect_module_rngs(self.model), self.config.seed, global_step, 0)

    # ------------------------------------------------------------------
    # Entry point (parent process = rank 0)
    # ------------------------------------------------------------------
    def train(self) -> TrainResult:
        loop = self._loop
        loop.start()
        self._optimizer = loop.optimizer
        if self.workers == 1:
            self._buffer = LocalReduceBuffer(
                self.grad_shards, self._optimizer.flat_size, len(self._optimizer.params)
            )
            self._barrier_a = self._barrier_b = None
            _pstate.install_rank(0, 1)
            try:
                self._run_rank(0)
            finally:
                _pstate.install_rank(0, 1)
        else:
            self._train_multiprocess()
        return loop.result

    def _train_multiprocess(self) -> None:
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            raise RuntimeError(
                "data-parallel training with workers > 1 requires the 'fork' "
                "start method (Linux/macOS); this platform only offers "
                f"{mp.get_all_start_methods()} — run with workers=1"
            )
        ctx = mp.get_context("fork")
        buf = SharedReduceBuffer(
            self.grad_shards, self._optimizer.flat_size, len(self._optimizer.params)
        )
        self._buffer = buf
        self._barrier_a = ctx.Barrier(self.workers)
        self._barrier_b = ctx.Barrier(self.workers)
        self._metrics_queue = ctx.SimpleQueue()
        # Captured pre-fork so each child can derive its per-rank fault
        # stream from the plan the caller installed around train().
        parent_plan = _faults.active_plan()
        self._parent_fault_config = None if parent_plan is None else parent_plan.config

        children = [
            ctx.Process(
                target=self._worker_entry, args=(rank,), daemon=True,
                name=f"repro-dp-rank{rank}",
            )
            for rank in range(1, self.workers)
        ]
        for child in children:
            child.start()
        self._children = children
        _pstate.install_rank(0, self.workers)
        try:
            self._run_rank(0)
        finally:
            # Whether we finished or died (e.g. an injected
            # SimulatedCrash right after a checkpoint), release any rank
            # stuck at a barrier, reap the children, and merge whatever
            # metrics they managed to ship.
            for barrier in (self._barrier_a, self._barrier_b):
                with contextlib.suppress(Exception):
                    barrier.abort()
            buf.signal_abort()
            for child in children:
                child.join(timeout=10)
            for child in children:
                if child.is_alive():  # pragma: no cover - last-resort reap
                    child.terminate()
                    child.join(timeout=5)
            self._merge_worker_metrics()
            buf.close()
            buf.unlink()
            _pstate.install_rank(0, 1)

    def _merge_worker_metrics(self) -> None:
        """Fold child metric snapshots into the root registry, rank order."""
        snapshots = []
        with contextlib.suppress(Exception):
            while not self._metrics_queue.empty():
                snapshots.append(self._metrics_queue.get())
        for _, payload in sorted(snapshots, key=lambda item: item[0]):
            if payload is not None:
                REGISTRY.merge_json(payload)

    # ------------------------------------------------------------------
    # Worker process entry (ranks 1..N-1)
    # ------------------------------------------------------------------
    def _worker_entry(self, rank: int) -> None:
        import os
        import sys

        _pstate.reset_inherited_state()
        _pstate.install_rank(rank, self.workers)
        exit_code = 0
        try:
            if self._parent_fault_config is not None:
                # Entered for the process lifetime: each rank draws its
                # injections from an independent, reproducible stream.
                fault_injection(self._parent_fault_config.for_rank(rank)).__enter__()
            self._run_rank(rank)
            payload = REGISTRY.to_json() if _obs._enabled else None
            self._metrics_queue.put((rank, payload))
        except threading.BrokenBarrierError:
            # The parent aborted (finished, crashed, or another worker
            # died) — exit quietly; the parent reports the real cause.
            exit_code = 0
        except BaseException:
            traceback.print_exc(file=sys.stderr)
            for barrier in (self._barrier_a, self._barrier_b):
                with contextlib.suppress(Exception):
                    barrier.abort()
            exit_code = 1
        finally:
            # Skip interpreter teardown: the forked child shares file
            # descriptors and atexit state with the parent.
            os._exit(exit_code)

    # ------------------------------------------------------------------
    # Synchronization
    # ------------------------------------------------------------------
    def _wait(self, barrier, rank: int) -> None:
        if barrier is None:
            return
        try:
            barrier.wait(_BARRIER_TIMEOUT_S)
        except threading.BrokenBarrierError:
            if rank != 0:
                raise
            dead = [
                child.name
                for child in getattr(self, "_children", [])
                if child.exitcode not in (None, 0)
            ]
            raise WorkerCrashError(
                "data-parallel barrier broken"
                + (f"; dead worker(s): {', '.join(dead)}" if dead else "")
                + " — see worker stderr for the originating traceback"
            ) from None

    def _run_rank(self, rank: int) -> None:
        """Run the shared epoch loop as ``rank`` with the data-parallel step."""
        step = functools.partial(
            self._parallel_step,
            rank,
            *rank_shard_range(rank, self.workers, self.grad_shards),
            collect_module_rngs(self.model),
            self._optimizer.grad_offsets,
        )
        self._loop.run(step, _root=rank == 0)

    # ------------------------------------------------------------------
    # One optimizer step: shard -> backward -> all-reduce -> step
    # ------------------------------------------------------------------
    def _parallel_step(
        self,
        rank: int,
        shard_lo: int,
        shard_hi: int,
        generators: List[np.random.Generator],
        offsets: np.ndarray,
        batch: Batch,
        global_step: int,
        arena: GradArena,
        timed,
    ) -> float:
        config = self.config
        model = self.model
        optimizer = self._optimizer
        buf = self._buffer
        bounds = shard_bounds(len(batch), self.grad_shards)
        # The *global* batch's real-target count: every shard's loss is
        # normalized by it, so the fixed-order shard sum reproduces the
        # batch-mean loss (and gradient) for any worker count.
        normalizer = float(np.asarray(batch.target_mask, dtype=np.float32).sum())
        for shard in range(shard_lo, shard_hi):
            lo, hi = bounds[shard]
            if lo == hi:
                # Empty logical shard (batch smaller than grad_shards):
                # rows persist across steps, so the owner must clear its
                # slot or a stale gradient would leak into the reduce.
                buf.grads[shard].fill(0.0)
                buf.losses[shard] = 0.0
                buf.touched[shard].fill(0)
                continue
            _seed_shard_rngs(generators, config.seed, global_step, shard)
            negatives = (
                batch.negatives[lo:hi] if batch.negatives is not None else None
            )
            with timed("train.forward"):
                pos, neg = model.forward_train(
                    batch.src[lo:hi], batch.times[lo:hi], batch.tgt[lo:hi], negatives
                )
                loss = weighted_bce_loss(
                    pos, neg, batch.target_mask[lo:hi],
                    temperature=config.temperature, normalizer=normalizer,
                )
            optimizer.zero_grad()
            with timed("train.backward"):
                loss.backward()
            buf.losses[shard] = np.float32(loss.data)
            optimizer.write_flat_grads(buf.grads[shard], touched=buf.touched[shard])
        # Barrier A: every rank's rows are written.
        self._wait(self._barrier_a, rank)
        with timed("train.step"):
            # Every rank performs the identical fixed-order reduction —
            # a pure function of the shard matrix, independent of which
            # process computed which row.
            flat_grad = reduce_shard_grads(buf.grads)
            batch_loss = reduce_shard_losses(buf.losses)
            touched_any = buf.touched.any(axis=0)
            # Barrier B: every rank has read the rows; the buffer may be
            # overwritten by the next step.
            self._wait(self._barrier_b, rank)
            missing = np.flatnonzero(~touched_any)
            if config.grad_clip:
                clip_flat_grad_norm(flat_grad, offsets, config.grad_clip)
            optimizer.step_flat(flat_grad, missing=missing)
            arena.reset()
        return batch_loss

