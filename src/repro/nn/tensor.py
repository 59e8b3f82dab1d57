"""A small reverse-mode automatic differentiation engine over numpy.

This module is the computational substrate for every model in the
repository.  The paper's reference implementation uses PyTorch; this
environment has no deep-learning framework installed, so we implement
the minimum viable equivalent: a :class:`Tensor` wrapping a float32
numpy array, a tape of parent links built during the forward pass, and
:meth:`Tensor.backward` performing a topological-order sweep that
accumulates gradients.

Design notes
------------
- Gradients are plain ``numpy.ndarray`` objects stored on ``.grad``,
  except an embedding table's, which is a
  :class:`~repro.nn.rowsparse.RowSparseGrad` over the rows a step read
  (``dense_grad`` turns either into an array).
- Broadcasting is fully supported; :func:`unbroadcast` reduces an
  upstream gradient back to the shape of the operand that produced it.
- Only float32 data participates in differentiation.  Integer arrays
  (indices) may be wrapped in a Tensor for convenience but are never
  differentiated through.
- No in-place autograd mutation: every op returns a fresh Tensor.
"""

from __future__ import annotations

from itertools import accumulate
from math import prod
from time import perf_counter as _perf_counter
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from . import anomaly as _anomaly
from .rowsparse import RowSparseGrad

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

_grad_enabled = True

#: Active gradient/activation arena (installed by :func:`grad_arena`).
#: When None (the default) scratch requests fall back to plain
#: ``np.empty`` — zero overhead off the training path.
_arena: Optional["GradArena"] = None


class GradArena:
    """A pool of reusable scratch buffers for fused forward/backward ops.

    The numpy engine allocates a fresh array per op; over a training run
    the big attention-shaped intermediates ((b, n, n) score maps, their
    gradients) dominate allocator traffic.  The arena hands out
    uninitialized buffers keyed by (size, dtype) and takes them all back
    at :meth:`reset`, which the trainer calls once per optimizer step —
    so steady-state training reuses the same few buffers every step.

    Lifetime rules (documented in README "Performance"):

    - A buffer issued between two ``reset()`` calls is exclusively owned
      until the next ``reset()``; fused ops may keep one alive across
      forward -> backward of the *same* step (e.g. saved softmax weights).
    - ``reset()`` must only run when the step's graph is dead (after
      ``optimizer.step()``): every issued buffer becomes eligible for
      reuse immediately.
    - Arena buffers never escape the step: op *outputs* and parameter
      gradients handed to ``_accumulate`` are ordinary arrays.
    - Buffers are only pooled while grad mode is on; eval/no-grad code
      paths allocate normally, so serving behaviour is unchanged.
    """

    __slots__ = ("_pool", "_issued", "hits", "misses")

    def __init__(self):
        self._pool: dict = {}
        self._issued: list = []
        self.hits = 0
        self.misses = 0

    def empty(self, shape, dtype=np.float32) -> np.ndarray:
        """An uninitialized buffer of ``shape``; contents are garbage and
        must be fully overwritten by the caller."""
        dtype = np.dtype(dtype)
        size = 1
        for dim in shape:
            size *= int(dim)
        key = (size, dtype)
        stack = self._pool.get(key)
        if stack:
            flat = stack.pop()
            self.hits += 1
        else:
            flat = np.empty(size, dtype=dtype)
            self.misses += 1
        self._issued.append((key, flat))
        return flat.reshape(shape)

    def reset(self) -> None:
        """Return every issued buffer to the pool (call once per step,
        after ``optimizer.step()``)."""
        for key, flat in self._issued:
            self._pool.setdefault(key, []).append(flat)
        self._issued.clear()


class grad_arena:
    """Context manager installing a :class:`GradArena` for fused ops.

    >>> with grad_arena() as arena:
    ...     for batch in batches:
    ...         loss = model(batch); loss.backward(); opt.step()
    ...         arena.reset()

    Nestable; the previous arena (or None) is restored on exit.
    """

    def __init__(self, arena: Optional[GradArena] = None):
        self._arena = arena or GradArena()

    def __enter__(self) -> GradArena:
        global _arena  # repro-lint: disable=REPRO-STATE -- scrubbed after fork by repro.parallel.state.reset_inherited_state
        self._prev = _arena
        _arena = self._arena
        return self._arena

    def __exit__(self, *exc):
        global _arena  # repro-lint: disable=REPRO-STATE -- scrubbed after fork by repro.parallel.state.reset_inherited_state
        _arena = self._prev
        return False


def arena_empty(shape, dtype=np.float32) -> np.ndarray:
    """Scratch buffer from the active arena (training only), else a
    plain ``np.empty``.  Contents are uninitialized either way."""
    if _arena is None or not _grad_enabled:
        return np.empty(shape, dtype=dtype)
    return _arena.empty(shape, dtype=dtype)


#: Op-level profiler hook (installed by ``repro.obs.opprof.op_profile``).
#: Like anomaly mode, the disabled path is a single predicted branch.
_op_profiler = None

#: Fault-injection hook (installed by ``repro.faults.fault_injection``).
#: Called with ``(data, backward)`` at every op boundary; may return a
#: corrupted output array or raise.  Same cost model as the profiler:
#: one ``is not None`` check when disabled.
_fault_hook = None


def set_op_profiler(profiler):
    """Install (or clear, with None) the op-boundary profiler hook.

    Returns the previously installed hook so callers can restore it —
    ``repro.obs.opprof.op_profile`` is the only intended caller.
    """
    global _op_profiler  # repro-lint: disable=REPRO-STATE -- scrubbed after fork by repro.parallel.state.reset_inherited_state
    previous = _op_profiler
    _op_profiler = profiler
    return previous


def set_fault_hook(hook):
    """Install (or clear, with None) the op-boundary fault injector.

    Returns the previously installed hook so callers can restore it —
    ``repro.faults.state.fault_injection`` is the only intended caller.
    """
    global _fault_hook  # repro-lint: disable=REPRO-STATE -- scrubbed after fork by repro.parallel.state.reset_inherited_state
    previous = _fault_hook
    _fault_hook = hook
    return previous


class no_grad:
    """Context manager disabling graph construction (eval / inference)."""

    def __enter__(self):
        global _grad_enabled  # repro-lint: disable=REPRO-STATE -- context-manager toggle, restored on __exit__
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled  # repro-lint: disable=REPRO-STATE -- context-manager toggle; restores the value __enter__ saved
        _grad_enabled = self._prev
        return False


def is_grad_enabled() -> bool:
    return _grad_enabled


def _as_array(value: ArrayLike, dtype=np.float32) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    arr = np.asarray(value)  # repro-lint: disable=REPRO-F64 -- dtype is normalized on the next lines
    if arr.dtype != dtype and np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(dtype)
    return arr


def unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor with reverse-mode autograd support."""

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_backward",
        "_parents",
        "name",
        "_version",
        "_parent_versions",
    )
    __array_priority__ = 100  # so ndarray + Tensor dispatches to Tensor

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Sequence["Tensor"] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)  # repro-lint: disable=REPRO-F64 -- dtype is normalized on the next lines
        if arr.dtype.kind == "f" and arr.dtype != np.float32:
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad) and _grad_enabled
        self.grad: Optional[Union[np.ndarray, RowSparseGrad]] = None
        self._parents = tuple(_parents) if self.requires_grad or _parents else ()
        self._backward = _backward
        self.name = name
        self._version = 0
        self._parent_versions = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    # ------------------------------------------------------------------
    # Sanctioned in-place mutation (see repro.nn.anomaly)
    # ------------------------------------------------------------------
    def bump_version(self) -> None:
        """Declare that ``.data`` was mutated in place.

        Code that must write into the underlying array directly (rather
        than via :meth:`assign_`) calls this afterwards so that anomaly
        mode can detect stale saved-for-backward values.
        """
        self._version += 1

    def assign_(self, value: ArrayLike) -> "Tensor":
        """Replace the underlying array in place (optimizer updates,
        checkpoint loading).  Bumps the version counter so that a
        backward pass over a graph built *before* this call fails loudly
        under :func:`repro.nn.anomaly.anomaly_mode` instead of silently
        differentiating through the wrong values."""
        self.data = _as_array(value)
        self._version += 1
        return self

    def index_put_(self, index, values: ArrayLike) -> "Tensor":
        """Write ``values`` into ``self.data[index]`` in place (an
        optimizer stepping an embedding table's live rows).  Unlike
        :meth:`assign_` the array is kept, so every holder of it sees
        the new values; the version bump still makes a backward pass
        over a graph built before this call fail under anomaly mode.
        Bumps once even when ``index`` selects nothing."""
        self.data[index] = values
        self._version += 1
        return self

    # ------------------------------------------------------------------
    # Graph construction helper
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        if _op_profiler is not None:
            _op_profiler.on_forward(backward)
        if _fault_hook is not None:
            data = _fault_hook(data, backward)
        if _anomaly._enabled:
            _anomaly.check_forward(data, backward, parents)
        requires = _grad_enabled and any(p.requires_grad for p in parents)
        if not requires:
            return Tensor(data)
        out = Tensor(data, requires_grad=True, _parents=parents, _backward=backward)
        if _anomaly._enabled:
            out._parent_versions = _anomaly.record_versions(parents)
        return out

    def _accumulate(self, grad: Union[np.ndarray, RowSparseGrad]) -> None:
        """Add ``grad`` to ``.grad`` in arrival order, as ``g1 + g2``.

        Row-sparse gradients stay row-sparse; a dense one meeting a
        row-sparse one densifies the sum, in the same order."""
        if isinstance(grad, RowSparseGrad):
            if self.grad is None:
                self.grad = grad
            elif isinstance(self.grad, RowSparseGrad):
                self.grad = self.grad + grad
            else:
                self.grad = self.grad + grad.dense()
            return
        grad = np.asarray(grad, dtype=np.float32)
        if self.grad is None:
            self.grad = grad.copy() if grad.base is not None else grad
        elif isinstance(self.grad, RowSparseGrad):
            self.grad = self.grad.dense() + grad
        else:
            self.grad = self.grad + grad

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to ones (and must be supplied for non-scalar
        outputs only if a non-trivial seed is wanted).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data, dtype=np.float32)
        else:
            grad = np.asarray(grad, dtype=np.float32)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"seed gradient shape {grad.shape} != tensor shape {self.data.shape}"
                )

        # Topological sort (iterative to avoid recursion limits).
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited and parent.requires_grad:
                    stack.append((parent, False))

        anomaly_on = _anomaly._enabled
        profiler = _op_profiler
        if anomaly_on and not np.isfinite(grad).all():
            raise _anomaly.AnomalyError(
                "<backward seed>", "backward", "seed gradient contains NaN/Inf"
            )
        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                if anomaly_on:
                    _anomaly.check_versions(node)
                # An op's backward takes a dense gradient; only a
                # computed table (not a parameter) densifies here.
                grad = node.grad
                if isinstance(grad, RowSparseGrad):
                    grad = grad.dense()
                if profiler is not None:
                    t0 = _perf_counter()
                    node._backward(grad)
                    profiler.record_backward(node._backward, _perf_counter() - t0)
                else:
                    node._backward(grad)
                if anomaly_on:
                    _anomaly.check_backward(node)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(unbroadcast(grad, other.data.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out_data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(unbroadcast(-grad, other.data.shape))

        return Tensor._make(out_data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(_as_array(other)) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(grad * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(unbroadcast(grad * self.data, other.data.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(grad / other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(
                    unbroadcast(-grad * self.data / (other.data ** 2), other.data.shape)
                )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(_as_array(other)) / self

    def __neg__(self) -> "Tensor":
        out_data = -self.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(out_data, (self,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        return matmul(self, other)

    # Comparisons produce detached boolean tensors (non-differentiable).
    def __gt__(self, other: ArrayLike) -> "Tensor":
        return Tensor(self.data > _as_array(other))

    def __lt__(self, other: ArrayLike) -> "Tensor":
        return Tensor(self.data < _as_array(other))

    def __ge__(self, other: ArrayLike) -> "Tensor":
        return Tensor(self.data >= _as_array(other))

    def __le__(self, other: ArrayLike) -> "Tensor":
        return Tensor(self.data <= _as_array(other))

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        """Transpose; with no arguments swaps the last two axes (>=2D) or
        reverses all axes (numpy semantics for 1D/2D coincide)."""
        if not axes:
            if self.ndim < 2:
                return self
            perm = tuple(range(self.ndim - 2)) + (self.ndim - 1, self.ndim - 2)
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            perm = tuple(axes[0])
        else:
            perm = tuple(axes)
        inverse = tuple(np.argsort(perm))
        out_data = self.data.transpose(perm)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    def __getitem__(self, idx) -> "Tensor":
        if isinstance(idx, Tensor):
            idx = idx.data
        out_data = self.data[idx]
        shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros(shape, dtype=np.float32)
                np.add.at(full, idx, grad)
                self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % len(shape) for a in axes)
                for a in sorted(axes):
                    g = np.expand_dims(g, a)
            self._accumulate(np.broadcast_to(g, shape).astype(np.float32, copy=False))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        out = (centered * centered).mean(axis=axis, keepdims=keepdims)
        return out

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            full_max = out_data
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.data.ndim for a in axes)
                for a in sorted(axes):
                    g = np.expand_dims(g, a)
                    full_max = np.expand_dims(full_max, a)
            mask = (self.data == full_max).astype(np.float32, copy=False)
            # Split gradient evenly among ties, matching numpy-friendly
            # subgradient behaviour.
            denom = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(mask * g / denom)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise math
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data ** 2))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        # Numerically stable logistic.
        out_data = np.empty_like(self.data)
        pos = self.data >= 0
        out_data[pos] = 1.0 / (1.0 + np.exp(-self.data[pos]))
        ex = np.exp(self.data[~pos])
        out_data[~pos] = ex / (1.0 + ex)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (self.data > 0))

        return Tensor._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                inside = ((self.data >= low) & (self.data <= high)).astype(np.float32, copy=False)
                self._accumulate(grad * inside)

        return Tensor._make(out_data, (self,), backward)

    def masked_fill(self, mask: ArrayLike, value: float) -> "Tensor":
        """Return a tensor with positions where ``mask`` is truthy replaced
        by ``value``.  Gradient flows only through unmasked positions."""
        mask_arr = mask.data if isinstance(mask, Tensor) else np.asarray(mask)  # repro-lint: disable=REPRO-F64 -- boolean mask, cast to bool below
        mask_arr = mask_arr.astype(bool)
        out_data = np.where(mask_arr, np.float32(value), self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(np.where(mask_arr, 0.0, grad), self.data.shape))

        return Tensor._make(out_data, (self,), backward)


# ----------------------------------------------------------------------
# Free functions
# ----------------------------------------------------------------------
def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix multiply with full broadcasting support on batch dims."""
    out_data = a.data @ b.data

    def backward(grad: np.ndarray) -> None:
        a_mat = a.data if a.data.ndim > 1 else a.data[None, :]
        b_mat = b.data if b.data.ndim > 1 else b.data[:, None]
        g = grad
        if a.data.ndim == 1:
            g = np.expand_dims(g, -2)
        if b.data.ndim == 1:
            g = np.expand_dims(g, -1)
        if a.requires_grad:
            ga = g @ np.swapaxes(b_mat, -1, -2)
            if a.data.ndim == 1:
                ga = np.squeeze(ga, -2)
            a._accumulate(unbroadcast(np.asarray(ga, dtype=np.float32), a.data.shape))
        if b.requires_grad:
            gb = np.swapaxes(a_mat, -1, -2) @ g
            if b.data.ndim == 1:
                gb = np.squeeze(gb, -1)
            b._accumulate(unbroadcast(np.asarray(gb, dtype=np.float32), b.data.shape))

    return Tensor._make(out_data, (a, b), backward)


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        slicer = [slice(None)] * grad.ndim
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                slicer[axis] = slice(int(start), int(stop))
                t._accumulate(grad[tuple(slicer)])

    return Tensor._make(out_data, tuple(tensors), backward)


def split(x: Tensor, shapes: Sequence[Sequence[int]]) -> list:
    """Consecutive pieces of ``x`` along axis 0, piece ``i`` viewed as
    ``shapes[i]``; each piece covers whole rows of ``x``.  :func:`join`
    is the inverse.

    The pieces write their gradients into one buffer, which reaches
    ``x`` as a single gradient, so k pieces cost one ``x``-sized array
    and not k.
    """
    row = x.shape[1:]
    offsets = list(accumulate((prod(shape) // max(1, prod(row)) for shape in shapes), initial=0))
    if offsets[-1] != x.shape[0]:
        raise ValueError(f"pieces cover {offsets[-1]} rows, not the {x.shape[0]} rows of x")

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad)

    # The buffer's node: an identity op whose gradient the pieces fill.
    joint = Tensor._make(x.data, (x,), backward)

    def _piece(start: int, stop: int, shape: Sequence[int]) -> Tensor:
        def backward(grad: np.ndarray) -> None:
            if joint.grad is None:
                joint.grad = np.zeros(x.shape, dtype=np.float32)
            joint.grad[start:stop] += grad.reshape(stop - start, *row)

        return Tensor._make(x.data[start:stop].reshape(shape), (joint,), backward)

    return [_piece(a, b, tuple(shape)) for a, b, shape in zip(offsets, offsets[1:], shapes)]


def join(pieces: Sequence[Tensor], row: Sequence[int]) -> Tensor:
    """Every piece flattened to rows of shape ``row`` and stacked along
    axis 0: the inverse of :func:`split`."""
    flat = [p.data.reshape(-1, *row) for p in pieces]
    out_data = np.concatenate(flat, axis=0)
    offsets = list(accumulate((len(f) for f in flat), initial=0))

    def backward(grad: np.ndarray) -> None:
        for p, start, stop in zip(pieces, offsets, offsets[1:]):
            if p.requires_grad:
                p._accumulate(grad[start:stop].reshape(p.shape))

    return Tensor._make(out_data, tuple(pieces), backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slices = np.split(grad, len(tensors), axis=axis)
        for t, g in zip(tensors, slices):
            if t.requires_grad:
                t._accumulate(np.squeeze(g, axis=axis))

    return Tensor._make(out_data, tuple(tensors), backward)


def where(condition: ArrayLike, x: Tensor, y: Tensor) -> Tensor:
    cond = condition.data if isinstance(condition, Tensor) else np.asarray(condition)  # repro-lint: disable=REPRO-F64 -- boolean condition, cast to bool below
    cond = cond.astype(bool)
    x = x if isinstance(x, Tensor) else Tensor(_as_array(x))
    y = y if isinstance(y, Tensor) else Tensor(_as_array(y))
    out_data = np.where(cond, x.data, y.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(unbroadcast(np.where(cond, grad, 0.0), x.data.shape))
        if y.requires_grad:
            y._accumulate(unbroadcast(np.where(cond, 0.0, grad), y.data.shape))

    return Tensor._make(out_data, (x, y), backward)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=np.float32), requires_grad=requires_grad)


def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    return Tensor(_as_array(data), requires_grad=requires_grad)
