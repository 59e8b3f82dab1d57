"""Multi-process data-parallel training with bitwise determinism.

:class:`DataParallelTrainer` runs the STiSAN training loop across N
worker processes, modeled on the classic multi-replica loop (shard the
batch, per-replica backward, ``all_reduce_and_rescale``, identical
step) with ``multiprocessing`` + shared memory standing in for CUDA
replicas:

1. the parent prepares (and, on resume, restores) the canonical model,
   ``FlatAdam`` optimizer, trainer RNG and early-stopping state, then
   **forks** N−1 children — every replica starts bitwise identical;
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
import threading
import traceback
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from ..core.checkpoint import TrainerCheckpoint, TrainProgress, collect_module_rngs
from ..core.config import TrainConfig
from ..core.early_stopping import EarlyStopping
from ..core.loss import weighted_bce_loss
from ..core.stisan import STiSAN
from ..core.trainer import TrainResult, _fingerprint
from ..data.batching import Batch, BatchIterator
from ..data.negatives import NearestNegativeSampler
from ..data.sequences import EvalExample, SequenceExample
from ..data.types import CheckInDataset
from ..faults import fault_injection
from ..faults import state as _faults
from ..nn.optim import FlatAdam
from ..nn.tensor import grad_arena
from ..obs import REGISTRY, TelemetrySink, span
from ..obs import state as _obs
from . import state as _pstate
from .reduce import clip_flat_grad_norm, reduce_shard_grads, reduce_shard_losses
from .sharding import rank_shard_range, shard_bounds, validate_world
from .shm import LocalReduceBuffer, SharedReduceBuffer

__all__ = ["DataParallelTrainer", "WorkerCrashError", "train_data_parallel"]

#: Default logical shard count — fixed independently of the worker
#: count (it bounds usable workers and is part of the checkpoint
#: fingerprint, so the gradient arithmetic never depends on N).
DEFAULT_GRAD_SHARDS = 4

#: Stream id mixed into every derived per-(step, shard) dropout seed so
#: the streams never collide with other seeded generators in the repo.
_DROPOUT_STREAM = 0x5D


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


@dataclass
class _EpochState:
    """Mutable per-run loop bookkeeping, identical on every rank."""

    global_step: int = 0
    epoch_losses: List[float] = field(default_factory=list)
    validation_metrics: List[float] = field(default_factory=list)
    stopped_early: bool = False


class DataParallelTrainer:
    """Shard-batch / all-reduce / identical-step training over N processes.

    Mirrors :func:`repro.core.trainer.train_stisan`'s surface (loss
    curve, early stopping, telemetry, crash-safe checkpoints) with two
    extra knobs: ``workers`` (process count) and ``grad_shards`` (the
    fixed logical shard count; must be a multiple of every worker count
    the run will ever use — it is fingerprinted into checkpoints).
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
        barrier_timeout: float = 300.0,
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
        if checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be >= 0, got {checkpoint_every}")
        if checkpoint_every and checkpoint_dir is None:
            raise ValueError("checkpoint_every requires checkpoint_dir")
        if resume and checkpoint_dir is None:
            raise ValueError("resume=True requires checkpoint_dir")
        if barrier_timeout <= 0:
            raise ValueError("barrier_timeout must be positive")
        self.model = model
        self.dataset = dataset
        self.examples = examples
        self.config = config or TrainConfig()
        self.workers = workers
        self.grad_shards = grad_shards
        self.validation = validation
        self.patience = patience
        self.num_candidates = num_candidates
        self.telemetry = telemetry
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self.resume = resume
        self.on_epoch_end = on_epoch_end
        self.barrier_timeout = barrier_timeout

    # ------------------------------------------------------------------
    # Entry point (parent process = rank 0)
    # ------------------------------------------------------------------
    def train(self) -> TrainResult:
        config = self.config
        self._rng = np.random.default_rng(config.seed)
        self._sampler = NearestNegativeSampler(
            self.dataset,
            num_negatives=config.num_negatives,
            pool_size=config.negative_pool,
            rng=self._rng,
        )
        self._optimizer = FlatAdam(self.model.parameters(), lr=config.learning_rate)
        self._stopper = (
            EarlyStopping(patience=self.patience) if self.validation else None
        )
        # The worker count is deliberately NOT part of the fingerprint —
        # the captured state is worker-count independent; grad_shards IS,
        # because it shapes the gradient arithmetic.
        self._fingerprint = {
            **_fingerprint(
                config, len(self.examples), self.model, self.validation is not None
            ),
            "grad_shards": self.grad_shards,
        }

        result = TrainResult()
        progress = TrainProgress()
        self._resumed_order: Optional[np.ndarray] = None
        resumed = False
        if self.resume:
            loaded = TrainerCheckpoint.load_latest(self.checkpoint_dir)
            if loaded is not None:
                ckpt, ckpt_path = loaded
                ckpt.check_fingerprint(self._fingerprint)
                progress = ckpt.restore(
                    self.model, self._optimizer, self._rng, self._stopper
                )
                self._resumed_order = ckpt.order
                result.epoch_losses = list(progress.epoch_losses)
                result.validation_metrics = list(progress.validation_metrics)
                result.stopped_early = progress.stopped_early
                result.resumed_from_step = progress.global_step
                resumed = True
                if _obs._enabled:
                    REGISTRY.counter("repro_train_resumes_total").inc()
                if self.telemetry is not None:
                    self.telemetry.emit(
                        "resume",
                        checkpoint=ckpt_path.name,
                        epoch=progress.epoch,
                        batches_done=progress.batches_done,
                        step=progress.global_step,
                    )
        if self.telemetry is not None and not resumed:
            self.telemetry.emit(
                "train_start",
                epochs=config.epochs,
                batch_size=config.batch_size,
                learning_rate=config.learning_rate,
                num_negatives=config.num_negatives,
                temperature=config.temperature,
                seed=config.seed,
                num_examples=len(self.examples),
            )
        self._progress = progress
        self._result = result

        if self.workers == 1:
            buf = LocalReduceBuffer(
                self.grad_shards, self._optimizer.flat_size, len(self._optimizer.params)
            )
            self._buffer = buf
            self._barrier_a = self._barrier_b = None
            _pstate.install_rank(0, 1)
            try:
                self._run_rank(0)
            finally:
                _pstate.install_rank(0, 1)
            return result
        return self._train_multiprocess(result)

    def _train_multiprocess(self, result: TrainResult) -> TrainResult:
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
        return result

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
            barrier.wait(self.barrier_timeout)
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

    # ------------------------------------------------------------------
    # The per-rank training loop (identical control flow on every rank)
    # ------------------------------------------------------------------
    def _run_rank(self, rank: int) -> None:
        is_root = rank == 0
        config = self.config
        model = self.model
        optimizer = self._optimizer
        stopper = self._stopper
        progress = self._progress
        result = self._result
        telemetry = self.telemetry if is_root else None
        buf = self._buffer
        offsets = optimizer.grad_offsets
        num_params = len(optimizer.params)
        shard_lo, shard_hi = rank_shard_range(rank, self.workers, self.grad_shards)
        generators = collect_module_rngs(model)

        def _span(name: str):
            # Only the root contributes to the (merged) span metrics;
            # worker replicas would otherwise multiply every duration.
            return span(name) if is_root else contextlib.nullcontext()

        def save_ckpt(epoch: int, batches_done: int, epoch_loss: float, order) -> None:
            snapshot = TrainProgress(
                epoch=epoch,
                batches_done=batches_done,
                global_step=state.global_step,
                epoch_loss=epoch_loss,
                epoch_losses=list(state.epoch_losses),
                validation_metrics=list(state.validation_metrics),
                stopped_early=state.stopped_early,
            )
            # Canonicalize the dropout generator states before capture:
            # rank 0's in-memory states reflect whichever shard it
            # computed last — an N-dependent quantity — while every
            # consumer re-keys per (step, shard) before drawing, so the
            # stored state only has to be deterministic.
            _seed_shard_rngs(generators, config.seed, state.global_step, 0)
            # info deliberately omits the worker count: checkpoint BYTES
            # are part of the workers=N ≡ workers=1 contract, so nothing
            # N-dependent may be written.
            TrainerCheckpoint.capture(
                model, optimizer, self._rng, snapshot, self._fingerprint,
                stopper=stopper, order=order,
                info={"trainer": "data_parallel", "grad_shards": self.grad_shards},
            ).save(self.checkpoint_dir)
            plan = _faults.active_plan()
            if plan is not None:
                plan.on_train_checkpoint(state.global_step)

        state = _EpochState(
            global_step=progress.global_step,
            epoch_losses=list(result.epoch_losses),
            validation_metrics=list(result.validation_metrics),
            stopped_early=result.stopped_early,
        )

        model.train()
        start_epoch = progress.epoch
        run_epochs = not progress.stopped_early and start_epoch < config.epochs
        if run_epochs:
            for epoch in range(start_epoch, config.epochs):
                with _span("train.epoch"), grad_arena() as arena:
                    iterator = BatchIterator(
                        self.examples,
                        batch_size=config.batch_size,
                        sampler=self._sampler,
                        rng=self._rng,
                    )
                    if self._resumed_order is not None and epoch == start_epoch:
                        order = self._resumed_order
                        start_batch = progress.batches_done
                        epoch_loss = progress.epoch_loss
                        num_batches = progress.batches_done
                    else:
                        order = iterator.epoch_order()
                        start_batch = 0
                        epoch_loss = 0.0
                        num_batches = 0
                    for batch in iterator.iter_order(order, start_batch=start_batch):
                        with _span("train.batch"):
                            batch_loss = self._parallel_step(
                                rank, batch, buf, arena, generators,
                                offsets, num_params, shard_lo, shard_hi,
                                state.global_step, _span,
                            )
                        epoch_loss += batch_loss
                        num_batches += 1
                        state.global_step += 1
                        if is_root and _obs._enabled:
                            REGISTRY.counter("repro_train_batches_total").inc()
                            REGISTRY.gauge("repro_train_loss").set(batch_loss)
                        if telemetry is not None:
                            telemetry.emit(
                                "batch", epoch=epoch, step=state.global_step,
                                loss=batch_loss,
                            )
                        if (
                            is_root
                            and self.checkpoint_every
                            and state.global_step % self.checkpoint_every == 0
                        ):
                            save_ckpt(epoch, num_batches, epoch_loss, order)
                mean_loss = epoch_loss / max(num_batches, 1)
                state.epoch_losses.append(mean_loss)
                if is_root:
                    result.epoch_losses.append(mean_loss)
                    if _obs._enabled:
                        REGISTRY.counter("repro_train_epochs_total").inc()
                        REGISTRY.gauge("repro_train_epoch_loss").set(mean_loss)
                    if telemetry is not None:
                        telemetry.emit(
                            "epoch", epoch=epoch, batches=num_batches,
                            mean_loss=mean_loss,
                        )
                    if config.verbose:
                        print(f"epoch {epoch + 1}/{config.epochs}: loss={mean_loss:.4f}")
                    if self.on_epoch_end is not None:
                        self.on_epoch_end(epoch, mean_loss)
                should_stop = False
                if stopper is not None:
                    # Every rank evaluates (identical replicas produce the
                    # identical metric) so the stop decision needs no
                    # broadcast and control flow stays in lockstep.
                    from ..eval.protocol import evaluate  # deferred: eval -> baselines -> parallel is an import cycle

                    model.eval()
                    with _span("train.validate"):
                        report = evaluate(
                            model, self.dataset, self.validation,
                            num_candidates=self.num_candidates,
                        )
                    model.train()
                    state.validation_metrics.append(report.ndcg10)
                    if is_root:
                        result.validation_metrics.append(report.ndcg10)
                        if telemetry is not None:
                            telemetry.emit(
                                "validation", epoch=epoch, ndcg10=float(report.ndcg10)
                            )
                        if config.verbose:
                            print(f"  validation NDCG@10={report.ndcg10:.4f}")
                    if stopper.update(epoch, report.ndcg10, model=model):
                        state.stopped_early = True
                        if is_root:
                            result.stopped_early = True
                        should_stop = True
                if is_root and self.checkpoint_dir is not None:
                    save_ckpt(epoch + 1, 0, 0.0, None)
                if should_stop:
                    break
        if stopper is not None and state.validation_metrics:
            stopper.restore_best(model)
            if is_root:
                result.best_epoch = stopper.best_epoch
        model.eval()
        if telemetry is not None:
            telemetry.emit(
                "train_end",
                epochs_run=len(result.epoch_losses),
                steps=state.global_step,
                stopped_early=result.stopped_early,
                best_epoch=result.best_epoch,
                final_loss=result.final_loss,
            )

    # ------------------------------------------------------------------
    # One optimizer step: shard -> backward -> all-reduce -> step
    # ------------------------------------------------------------------
    def _parallel_step(
        self,
        rank: int,
        batch: Batch,
        buf,
        arena,
        generators: List[np.random.Generator],
        offsets: np.ndarray,
        num_params: int,
        shard_lo: int,
        shard_hi: int,
        global_step: int,
        _span,
    ) -> float:
        config = self.config
        model = self.model
        optimizer = self._optimizer
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
            with _span("train.forward"):
                pos, neg = model.forward_train(
                    batch.src[lo:hi], batch.times[lo:hi], batch.tgt[lo:hi], negatives
                )
                loss = weighted_bce_loss(
                    pos, neg, batch.target_mask[lo:hi],
                    temperature=config.temperature, normalizer=normalizer,
                )
            optimizer.zero_grad()
            with _span("train.backward"):
                loss.backward()
            buf.losses[shard] = np.float32(loss.data)
            optimizer.write_flat_grads(buf.grads[shard], touched=buf.touched[shard])
        # Barrier A: every rank's rows are written.
        self._wait(self._barrier_a, rank)
        with _span("train.step"):
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


def train_data_parallel(
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
    barrier_timeout: float = 300.0,
) -> TrainResult:
    """Functional entry point mirroring :func:`train_stisan` — see
    :class:`DataParallelTrainer` for the semantics and the determinism
    contract (``workers=N`` is bitwise ``workers=1`` for every N)."""
    return DataParallelTrainer(
        model,
        dataset,
        examples,
        config,
        workers=workers,
        grad_shards=grad_shards,
        validation=validation,
        patience=patience,
        num_candidates=num_candidates,
        telemetry=telemetry,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
        resume=resume,
        on_epoch_end=on_epoch_end,
        barrier_timeout=barrier_timeout,
    ).train()
