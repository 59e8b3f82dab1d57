"""Early stopping and validation-split helpers for longer training runs.

The paper trains for a fixed epoch budget (35/20); for full-scale runs
a downstream user would rather monitor a held-out metric and stop when
it stalls, restoring the best checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..data.sequences import EvalExample, SequenceExample
from ..nn.module import Module


@dataclass
class EarlyStopping:
    """Track a maximized validation metric; stop after ``patience``
    epochs without improvement and keep the best parameter snapshot."""

    patience: int = 3
    min_delta: float = 1e-4
    best_value: float = field(default=-np.inf, init=False)
    best_epoch: int = field(default=-1, init=False)
    _stale: int = field(default=0, init=False)
    _epochs_seen: int = field(default=0, init=False)
    _best_state: Optional[Dict[str, np.ndarray]] = field(default=None, init=False)

    def __post_init__(self):
        if self.patience < 1:
            raise ValueError("patience must be >= 1")

    def update(self, epoch: int, value: float, model: Optional[Module] = None) -> bool:
        """Record an epoch's metric.  Returns True when training should stop."""
        self._epochs_seen += 1
        if value > self.best_value + self.min_delta:
            self.best_value = value
            self.best_epoch = epoch
            self._stale = 0
            if model is not None:
                self._best_state = model.state_dict()
        else:
            self._stale += 1
        return self._stale >= self.patience

    def restore_best(self, model: Module) -> bool:
        """Load the best snapshot into ``model``; False if no snapshot
        was ever recorded (e.g. every validation metric was NaN).

        Raises ``RuntimeError`` if no validation epoch ever completed —
        restoring "the best epoch" before a single :meth:`update` is a
        caller bug, not a quiet no-op.
        """
        if self._epochs_seen == 0:
            raise RuntimeError(
                "restore_best() called but no validation epoch ever completed; "
                "run at least one epoch with validation before restoring"
            )
        if self._best_state is None:
            return False
        model.load_state_dict(self._best_state)
        return True

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict:
        """Serializable snapshot (for crash-safe training resume)."""
        return {
            "best_value": float(self.best_value),
            "best_epoch": self.best_epoch,
            "stale": self._stale,
            "epochs_seen": self._epochs_seen,
            "best_state": (
                None
                if self._best_state is None
                else {name: value.copy() for name, value in self._best_state.items()}
            ),
        }

    def load_state_dict(self, state: Dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self.best_value = float(state["best_value"])
        self.best_epoch = int(state["best_epoch"])
        self._stale = int(state["stale"])
        self._epochs_seen = int(state["epochs_seen"])
        best = state["best_state"]
        self._best_state = (
            None if best is None else {name: np.asarray(value) for name, value in best.items()}
        )


def validation_split(
    train_examples: List[SequenceExample],
    fraction: float = 0.1,
    *,
    rng: np.random.Generator,
) -> Tuple[List[SequenceExample], List[EvalExample]]:
    """Carve per-window validation targets out of the training set.

    The *last* real target of each sampled window becomes a validation
    instance (source = the window up to it), and that window is removed
    from the training list — no leakage.
    """
    if not 0 < fraction < 1:
        raise ValueError("fraction must be in (0, 1)")
    if not train_examples:
        raise ValueError("no training examples")
    indices = rng.permutation(len(train_examples))
    num_val = max(1, int(len(train_examples) * fraction))
    val_idx = set(map(int, indices[:num_val]))
    train_out: List[SequenceExample] = []
    val_out: List[EvalExample] = []
    for i, example in enumerate(train_examples):
        if i not in val_idx:
            train_out.append(example)
            continue
        real = np.nonzero(example.tgt_pois != 0)[0]
        if real.size == 0:
            train_out.append(example)
            continue
        last = int(real[-1])
        val_out.append(
            EvalExample(
                user=example.user,
                src_pois=example.src_pois,
                src_times=example.src_times,
                target=int(example.tgt_pois[last]),
            )
        )
    if not train_out:
        raise ValueError("validation fraction consumed every training window")
    return train_out, val_out
