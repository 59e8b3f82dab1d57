"""Data-parallel training with a bitwise determinism contract.

``repro.parallel`` trains one model across N worker processes —
forked replicas, shared-memory gradient exchange, a fixed-order
reduction — such that ``workers=N`` reproduces ``workers=1`` **bitwise**
(parameters, loss curve, optimizer moments, checkpoint bytes) for every
N.  See :mod:`repro.parallel.trainer` for the full design.
"""

from .reduce import clip_flat_grad_norm, reduce_shard_grads, reduce_shard_losses
from .sharding import rank_shard_range, shard_bounds, validate_world
from .shm import LocalReduceBuffer, SharedReduceBuffer
from .state import (
    current_rank,
    install_rank,
    is_root,
    reset_inherited_state,
    world_size,
)
from .trainer import (
    DEFAULT_GRAD_SHARDS,
    DataParallelTrainer,
    WorkerCrashError,
)

__all__ = [
    "DEFAULT_GRAD_SHARDS",
    "DataParallelTrainer",
    "LocalReduceBuffer",
    "SharedReduceBuffer",
    "WorkerCrashError",
    "clip_flat_grad_norm",
    "current_rank",
    "install_rank",
    "is_root",
    "rank_shard_range",
    "reduce_shard_grads",
    "reduce_shard_losses",
    "reset_inherited_state",
    "shard_bounds",
    "validate_world",
    "world_size",
]
