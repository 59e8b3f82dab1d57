"""Autograd anomaly detection — an opt-in NaN/Inf sanitizer.

The numpy autograd engine in :mod:`repro.nn.tensor` has no framework
guard rails: a NaN born inside a masked softmax or an overflowing
``exp`` silently propagates into every metric downstream.  This module
provides the runtime half of the repo's correctness tooling (the static
half is :mod:`repro.lint`):

- :func:`anomaly_mode` — a context manager (re-entrant, also enabled by
  the ``REPRO_ANOMALY=1`` environment variable) under which every op
  checks its forward output, and every backward step checks the
  gradients it produced, raising :class:`AnomalyError` that names the
  *producing* op and the operand shapes the moment a non-finite value
  appears.
- A version counter on ``Tensor`` (see ``Tensor.bump_version``,
  ``Tensor.assign_`` and ``Tensor.index_put_``): while anomaly mode is
  active, each op records the versions of its inputs at
  graph-construction time, and ``backward`` verifies they are
  unchanged — detecting tensors that were mutated in place between the
  forward and the backward pass.

When anomaly mode is off the engine takes a single predicted branch per
op, so training speed is unaffected.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence, Tuple

import numpy as np

from .rowsparse import RowSparseGrad

__all__ = ["AnomalyError", "anomaly_mode", "is_anomaly_enabled"]

# Module-level flag read by the hot paths in tensor.py.  Initialized from
# the environment so `REPRO_ANOMALY=1 python -m repro train ...` guards a
# whole run without code changes.
_enabled: bool = os.environ.get("REPRO_ANOMALY", "").strip() not in ("", "0", "false")


class AnomalyError(RuntimeError):
    """A non-finite value (or in-place mutation) detected by anomaly mode.

    Attributes
    ----------
    op : name of the producing op (e.g. ``"softmax"``, ``"Tensor.__truediv__"``).
    phase : ``"forward"``, ``"backward"`` or ``"mutation"``.
    """

    def __init__(self, op: str, phase: str, message: str):
        super().__init__(f"[{phase}] anomaly in op '{op}': {message}")
        self.op = op
        self.phase = phase


def is_anomaly_enabled() -> bool:
    """True when the NaN/Inf sanitizer is currently active."""
    return _enabled


class anomaly_mode:
    """Context manager enabling the autograd sanitizer.

    >>> with anomaly_mode():
    ...     loss = model(batch)
    ...     loss.backward()   # raises AnomalyError at the offending op

    Pass ``enabled=False`` to force-disable inside an enabled region.
    """

    def __init__(self, enabled: bool = True):
        self._enabled = enabled

    def __enter__(self):
        global _enabled  # repro-lint: disable=REPRO-STATE -- context-manager toggle, restored on __exit__
        self._prev = _enabled
        _enabled = self._enabled
        return self

    def __exit__(self, *exc):
        global _enabled  # repro-lint: disable=REPRO-STATE -- context-manager toggle; restores the value __enter__ saved
        _enabled = self._prev
        return False


def op_name_of(backward) -> str:
    """Derive the producing op's name from its backward closure.

    Every primitive op attaches a closure literally named ``backward``;
    its ``__qualname__`` (e.g. ``"softmax.<locals>.backward"`` or
    ``"Tensor.__mul__.<locals>.backward"``) identifies the op without
    any bookkeeping on the hot path.
    """
    if backward is None:
        return "<leaf>"
    qualname = getattr(backward, "__qualname__", getattr(backward, "__name__", "<op>"))
    return qualname.split(".<locals>")[0]


def _describe_nonfinite(arr: np.ndarray) -> Optional[str]:
    """Short description of the non-finite content of ``arr``, or None."""
    if np.isfinite(arr).all():
        return None
    flat = arr.ravel()
    n_nan = int(np.isnan(flat).sum())
    n_inf = int(np.isinf(flat).sum())
    parts = []
    if n_nan:
        parts.append(f"{n_nan} NaN")
    if n_inf:
        parts.append(f"{n_inf} Inf")
    return " + ".join(parts) + f" of {flat.size} values"


def check_forward(data: np.ndarray, backward, parents: Sequence) -> None:
    """Raise if an op's forward output contains NaN/Inf (anomaly mode only)."""
    if not np.issubdtype(data.dtype, np.floating):
        return
    desc = _describe_nonfinite(data)
    if desc is not None:
        shapes = ", ".join(str(tuple(p.data.shape)) for p in parents)
        raise AnomalyError(
            op_name_of(backward),
            "forward",
            f"output shape {tuple(data.shape)} contains {desc} "
            f"(operand shapes: [{shapes}])",
        )


def check_backward(node) -> None:
    """Raise if the backward step of ``node``'s producing op emitted NaN/Inf.

    Called right after ``node._backward(node.grad)`` ran; any fresh
    non-finite gradient on a parent was necessarily produced by that
    closure, because every earlier backward step was checked the same
    way.
    """
    for parent in node._parents:
        if parent.grad is None:
            continue
        grad = parent.grad
        if isinstance(grad, RowSparseGrad):
            grad = grad.values  # zero outside its listed rows
        desc = _describe_nonfinite(grad)
        if desc is not None:
            raise AnomalyError(
                op_name_of(node._backward),
                "backward",
                f"gradient for operand shape {tuple(parent.data.shape)} "
                f"contains {desc}",
            )


def record_versions(parents: Sequence) -> Tuple[int, ...]:
    """Snapshot parent version counters at graph-construction time."""
    return tuple(p._version for p in parents)


def check_versions(node) -> None:
    """Raise if any saved-for-backward tensor was mutated after the forward."""
    saved = node._parent_versions
    if saved is None:
        return
    for parent, version in zip(node._parents, saved):
        if parent._version != version:
            raise AnomalyError(
                op_name_of(node._backward),
                "mutation",
                f"operand shape {tuple(parent.data.shape)} was mutated in place "
                f"after the forward pass (version {version} -> {parent._version}); "
                "gradients would be computed from the wrong values",
            )
