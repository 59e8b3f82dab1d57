"""Training loop for STiSAN (and API-compatible neural baselines).

One epoch loop, :class:`_EpochLoop`, serves both trainers; they differ
only in the per-batch step they hand it.  :func:`train_stisan`'s step
forwards the whole batch, backpropagates the loss, clips and steps
``FlatAdam``; :class:`repro.parallel.DataParallelTrainer` runs the loop
on every rank with a step that computes that rank's gradient shards and
all-reduces them.  Resume, telemetry, metrics, checkpoints, validation
and early stopping live here once.

Instrumented with :mod:`repro.obs`: ``train.epoch`` / ``train.batch`` /
``train.forward`` / ``train.backward`` / ``train.step`` spans, the
``repro_train_*`` metrics, and an optional JSONL telemetry sink whose
stream (loss curve, step counts) is deterministic for a fixed seed
modulo the timestamp field — ``tests/test_obs_telemetry.py`` replays
two seeded runs and diffs them to catch nondeterminism regressions.

Crash-safe resume: pass ``checkpoint_dir`` (and optionally
``checkpoint_every`` steps) to write full
:class:`repro.core.checkpoint.TrainerCheckpoint` snapshots — model,
Adam moments, trainer/model RNG states, mid-epoch batch position and
early-stopping state — through the atomic, checksummed writer.  With
``resume=True`` the newest intact checkpoint is restored and training
continues **bitwise identically** to the uninterrupted run: final
parameters match exactly and the telemetry streams concatenate into
the uninterrupted stream (modulo timestamps).  Telemetry for a batch
is always emitted *before* that batch's checkpoint is written, so a
crash between the two replays nothing and drops nothing.
"""

from __future__ import annotations

import contextlib
from dataclasses import KW_ONLY, dataclass, field
from typing import Callable, List, Optional

import numpy as np

from ..data.batching import Batch, BatchIterator
from ..data.negatives import NearestNegativeSampler
from ..data.sequences import EvalExample, SequenceExample
from ..data.types import CheckInDataset
from ..faults import state as _faults
from ..nn.optim import FlatAdam
from ..nn.tensor import GradArena, grad_arena
from ..obs import REGISTRY, TelemetrySink, span
from ..obs import state as _obs
from .checkpoint import TrainerCheckpoint, TrainProgress
from .config import TrainConfig
from .early_stopping import EarlyStopping
from .loss import weighted_bce_loss, weighted_bce_loss_sharded
from .stisan import STiSAN


@dataclass
class TrainResult:
    """Per-epoch training diagnostics."""

    epoch_losses: List[float] = field(default_factory=list)
    validation_metrics: List[float] = field(default_factory=list)
    stopped_early: bool = False
    best_epoch: int = -1
    resumed_from_step: Optional[int] = None

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")


def _fingerprint(
    config: TrainConfig, num_examples: int, model, has_validation: bool
) -> dict:
    """Settings that must match between a checkpoint and a resuming run."""
    return {
        "model": type(model).__name__,
        "seed": config.seed,
        "epochs": config.epochs,
        "batch_size": config.batch_size,
        "learning_rate": config.learning_rate,
        "num_negatives": config.num_negatives,
        "negative_pool": config.negative_pool,
        "temperature": config.temperature,
        "grad_clip": config.grad_clip,
        "loss_shard_size": config.loss_shard_size,
        "num_examples": num_examples,
        "has_validation": has_validation,
    }


def _no_span(name: str):
    return contextlib.nullcontext()


#: One optimizer step: ``step(batch, global_step, arena, timed)`` trains
#: on ``batch`` after ``global_step`` earlier steps, opens its spans
#: through ``timed`` and returns the batch loss.
_Step = Callable[[Batch, int, GradArena, Callable], float]


@dataclass(eq=False)
class _EpochLoop:
    """One training run: the prologue in :meth:`start`, the epochs in :meth:`run`.

    :meth:`start` builds the trainer RNG, the negative sampler,
    ``FlatAdam`` and the early-stopping state, restores them from the
    newest intact checkpoint when ``resume`` is set, and emits the
    ``resume`` or ``train_start`` record.  The data-parallel trainer
    calls it before it forks, so every rank starts from that one state.

    A trainer whose gradient arithmetic differs marks its checkpoints
    as its own: ``fingerprint_extra`` joins the resume fingerprint,
    ``checkpoint_info`` is stored with each checkpoint, and
    ``before_checkpoint(global_step)`` runs just before each capture.
    """

    model: STiSAN
    dataset: CheckInDataset
    examples: List[SequenceExample]
    config: Optional[TrainConfig]
    _: KW_ONLY
    on_epoch_end: Optional[Callable[[int, float], None]]
    validation: Optional[List[EvalExample]]
    patience: int
    num_candidates: int
    telemetry: Optional[TelemetrySink]
    checkpoint_dir: Optional[str]
    checkpoint_every: int
    resume: bool
    fingerprint_extra: dict = field(default_factory=dict)
    checkpoint_info: Optional[dict] = None
    before_checkpoint: Optional[Callable[[int], None]] = None

    def __post_init__(self) -> None:
        if self.checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")
        if self.checkpoint_every and self.checkpoint_dir is None:
            raise ValueError("checkpoint_every requires checkpoint_dir")
        if self.resume and self.checkpoint_dir is None:
            raise ValueError("resume=True requires checkpoint_dir")
        self.config = self.config or TrainConfig()

    def start(self) -> None:
        config, telemetry = self.config, self.telemetry
        self.rng = np.random.default_rng(config.seed)
        self.sampler = NearestNegativeSampler(
            self.dataset,
            num_negatives=config.num_negatives,
            pool_size=config.negative_pool,
            rng=self.rng,
        )
        # FlatAdam performs bitwise-identical updates to Adam on one flat
        # buffer; checkpoints remain interchangeable between the two.
        self.optimizer = FlatAdam(self.model.parameters(), lr=config.learning_rate)
        self.result = TrainResult()
        self.stopper = EarlyStopping(patience=self.patience) if self.validation else None
        self.fingerprint = {
            **_fingerprint(
                config, len(self.examples), self.model, self.validation is not None
            ),
            **self.fingerprint_extra,
        }
        self.progress = TrainProgress()
        self.resumed_order: Optional[np.ndarray] = None
        if self.resume:
            loaded = TrainerCheckpoint.load_latest(self.checkpoint_dir)
            if loaded is not None:
                ckpt, ckpt_path = loaded
                ckpt.check_fingerprint(self.fingerprint)
                self.progress = progress = ckpt.restore(
                    self.model, self.optimizer, self.rng, self.stopper
                )
                self.resumed_order = ckpt.order
                self.result.epoch_losses = list(progress.epoch_losses)
                self.result.validation_metrics = list(progress.validation_metrics)
                self.result.stopped_early = progress.stopped_early
                self.result.resumed_from_step = progress.global_step
                if _obs._enabled:
                    REGISTRY.counter("repro_train_resumes_total").inc()
                if telemetry is not None:
                    telemetry.emit(
                        "resume",
                        checkpoint=ckpt_path.name,
                        epoch=progress.epoch,
                        batches_done=progress.batches_done,
                        step=progress.global_step,
                    )
                return
        if telemetry is not None:
            telemetry.emit(
                "train_start",
                epochs=config.epochs,
                batch_size=config.batch_size,
                learning_rate=config.learning_rate,
                num_negatives=config.num_negatives,
                temperature=config.temperature,
                seed=config.seed,
                num_examples=len(self.examples),
            )

    def _save(
        self, epoch: int, batches_done: int, global_step: int, epoch_loss: float, order
    ) -> None:
        result = self.result
        snapshot = TrainProgress(
            epoch=epoch,
            batches_done=batches_done,
            global_step=global_step,
            epoch_loss=epoch_loss,
            epoch_losses=list(result.epoch_losses),
            validation_metrics=list(result.validation_metrics),
            stopped_early=result.stopped_early,
        )
        if self.before_checkpoint is not None:
            self.before_checkpoint(global_step)
        TrainerCheckpoint.capture(
            self.model, self.optimizer, self.rng, snapshot, self.fingerprint,
            stopper=self.stopper, order=order, info=self.checkpoint_info,
        ).save(self.checkpoint_dir)
        plan = _faults.active_plan()
        if plan is not None:
            plan.on_train_checkpoint(global_step)

    def run(self, step: _Step, _root: bool = True) -> TrainResult:
        """Train the epochs left, calling ``step`` once per batch.

        Every rank of a data-parallel run calls this with its own step.
        Only the ``_root`` call opens spans, bumps ``repro_train_*``
        metrics, emits telemetry, prints, calls ``on_epoch_end`` and
        writes checkpoints; the other ranks' results are discarded.
        Every rank validates and updates the early stopper (identical
        replicas reach the identical metric), so all ranks stop together.
        """
        config, model, stopper = self.config, self.model, self.stopper
        progress, result = self.progress, self.result
        telemetry = self.telemetry if _root else None
        timed = span if _root else _no_span
        checkpoint_every = self.checkpoint_every if _root else 0
        global_step = progress.global_step
        model.train()
        start_epoch = progress.epoch
        run_epochs = not progress.stopped_early and start_epoch < config.epochs
        if run_epochs:
            for epoch in range(start_epoch, config.epochs):
                # The gradient arena recycles backward scratch buffers
                # across the epoch's steps; each step resets it after
                # its optimizer update (the step's graph is dead by
                # then), and it is discarded at epoch end so validation
                # runs unpooled.
                with timed("train.epoch"), grad_arena() as arena:
                    iterator = BatchIterator(
                        self.examples,
                        batch_size=config.batch_size,
                        sampler=self.sampler,
                        rng=self.rng,
                    )
                    if self.resumed_order is not None and epoch == start_epoch:
                        # Mid-epoch resume: replay the checkpointed shuffle
                        # order from the first unprocessed batch; the RNG
                        # state restored above already reflects the shuffle
                        # and the sampler draws of the completed batches.
                        order = self.resumed_order
                        start_batch = progress.batches_done
                        epoch_loss = progress.epoch_loss
                        num_batches = progress.batches_done
                    else:
                        order = iterator.epoch_order()
                        start_batch = 0
                        epoch_loss = 0.0
                        num_batches = 0
                    for batch in iterator.iter_order(order, start_batch=start_batch):
                        with timed("train.batch"):
                            batch_loss = step(batch, global_step, arena, timed)
                        epoch_loss += batch_loss
                        num_batches += 1
                        global_step += 1
                        if _root and _obs._enabled:
                            REGISTRY.counter("repro_train_batches_total").inc()
                            REGISTRY.gauge("repro_train_loss").set(batch_loss)
                        if telemetry is not None:
                            telemetry.emit(
                                "batch", epoch=epoch, step=global_step, loss=batch_loss
                            )
                        if checkpoint_every and global_step % checkpoint_every == 0:
                            self._save(epoch, num_batches, global_step, epoch_loss, order)
                mean_loss = epoch_loss / max(num_batches, 1)
                result.epoch_losses.append(mean_loss)
                if _root:
                    if _obs._enabled:
                        REGISTRY.counter("repro_train_epochs_total").inc()
                        REGISTRY.gauge("repro_train_epoch_loss").set(mean_loss)
                    if telemetry is not None:
                        telemetry.emit(
                            "epoch", epoch=epoch, batches=num_batches, mean_loss=mean_loss
                        )
                    if config.verbose:
                        print(f"epoch {epoch + 1}/{config.epochs}: loss={mean_loss:.4f}")
                    if self.on_epoch_end is not None:
                        self.on_epoch_end(epoch, mean_loss)
                should_stop = False
                if stopper is not None:
                    from ..eval.protocol import evaluate  # repro-lint: disable=REPRO-HOTIMPORT -- breaks the core<->eval import cycle; runs once per epoch, not per query

                    model.eval()
                    with timed("train.validate"):
                        report = evaluate(
                            model, self.dataset, self.validation,
                            num_candidates=self.num_candidates,
                        )
                    model.train()
                    result.validation_metrics.append(report.ndcg10)
                    if telemetry is not None:
                        telemetry.emit("validation", epoch=epoch, ndcg10=float(report.ndcg10))
                    if _root and config.verbose:
                        print(f"  validation NDCG@10={report.ndcg10:.4f}")
                    if stopper.update(epoch, report.ndcg10, model=model):
                        result.stopped_early = True
                        should_stop = True
                if _root and self.checkpoint_dir is not None:
                    self._save(epoch + 1, 0, global_step, 0.0, None)
                if should_stop:
                    break
        if stopper is not None and result.validation_metrics:
            stopper.restore_best(model)
            result.best_epoch = stopper.best_epoch
        model.eval()
        if telemetry is not None:
            telemetry.emit(
                "train_end",
                epochs_run=len(result.epoch_losses),
                steps=global_step,
                stopped_early=result.stopped_early,
                best_epoch=result.best_epoch,
                final_loss=result.final_loss,
            )
        return result


def train_stisan(
    model: STiSAN,
    dataset: CheckInDataset,
    examples: List[SequenceExample],
    config: Optional[TrainConfig] = None,
    on_epoch_end: Optional[Callable[[int, float], None]] = None,
    validation: Optional[List[EvalExample]] = None,
    patience: int = 3,
    num_candidates: int = 100,
    telemetry: Optional[TelemetrySink] = None,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every: int = 0,
    resume: bool = False,
) -> TrainResult:
    """Optimize ``model`` on the given training windows.

    Follows Section III-H / IV-D: weighted BCE over L nearest-neighbour
    negatives, Adam at the configured learning rate.

    If ``validation`` instances are supplied (e.g. from
    :func:`repro.core.early_stopping.validation_split`), NDCG@10 is
    evaluated each epoch, training stops after ``patience`` epochs
    without improvement, and the best snapshot is restored.

    ``telemetry`` (optional) receives one JSONL record per batch and
    per epoch; for a fixed config/seed the stream is identical between
    runs except for timestamps.

    ``checkpoint_dir`` enables crash-safe checkpoints: one at the end
    of every epoch, plus one every ``checkpoint_every`` optimizer steps
    when that is positive.  ``resume=True`` restores the newest intact
    checkpoint from the directory (corrupt files are skipped; if all
    are corrupt the run refuses to silently start over) and continues
    bitwise identically to the uninterrupted run.
    """
    loop = _EpochLoop(
        model, dataset, examples, config,
        on_epoch_end=on_epoch_end,
        validation=validation,
        patience=patience,
        num_candidates=num_candidates,
        telemetry=telemetry,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
        resume=resume,
    )
    loop.start()
    config, optimizer = loop.config, loop.optimizer

    def step(batch: Batch, global_step: int, arena: GradArena, timed) -> float:
        with timed("train.forward"):
            pos, neg = model.forward_train(batch.src, batch.times, batch.tgt, batch.negatives)
            if config.loss_shard_size:
                loss = weighted_bce_loss_sharded(
                    pos,
                    neg,
                    batch.target_mask,
                    temperature=config.temperature,
                    shard_size=config.loss_shard_size,
                )
            else:
                loss = weighted_bce_loss(
                    pos, neg, batch.target_mask, temperature=config.temperature
                )
        optimizer.zero_grad()
        with timed("train.backward"):
            loss.backward()
        with timed("train.step"):
            if config.grad_clip:
                optimizer.clip_grad_norm(config.grad_clip)
            optimizer.step()
            arena.reset()
        return float(loss.data)

    return loop.run(step)
