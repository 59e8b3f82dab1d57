"""First-order optimizers: SGD (with momentum) and Adam.

The paper trains with Adam at learning rate 1e-3.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

import numpy as np

from .module import Parameter
from .rowsparse import RowSparseGrad, dense_grad


class Optimizer:
    def __init__(self, params: Iterable[Parameter], lr: float):
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        raise NotImplementedError

    def clip_grad_norm(self, max_norm: float) -> float:
        """Global-norm gradient clipping; returns the pre-clip norm.

        A row-sparse gradient adds the exact float32 sum of squares of
        the dense table it stands for, from its live rows; scaling it
        scales only those rows."""
        total = 0.0
        for p in self.params:
            if isinstance(p.grad, RowSparseGrad):
                total += float(p.grad.sum_of_squares())
            elif p.grad is not None:
                total += float((p.grad ** 2).sum())
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0:
            scale = max_norm / norm
            for p in self.params:
                if p.grad is not None:
                    p.grad = p.grad * scale
        return norm


class SGD(Optimizer):
    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
    ):
        super().__init__(params, lr)
        self.momentum = momentum
        self._velocity: Optional[List[np.ndarray]] = None

    def state_dict(self) -> dict:
        """Momentum buffers (for crash-safe training resume)."""
        return {
            "velocity": None if self._velocity is None else [v.copy() for v in self._velocity]
        }

    def load_state_dict(self, state: dict) -> None:
        velocity = state["velocity"]
        if velocity is None:
            self._velocity = None
            return
        if len(velocity) != len(self.params):
            raise ValueError(
                f"optimizer state holds {len(velocity)} velocity buffers "
                f"for {len(self.params)} parameters"
            )
        self._velocity = [np.asarray(v, dtype=np.float32).copy() for v in velocity]

    def step(self) -> None:
        if self._velocity is None:
            self._velocity = [np.zeros_like(p.data) for p in self.params]
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            grad = dense_grad(p.grad)
            if self.momentum:
                v *= self.momentum
                v += grad
                grad = v
            p.assign_(p.data - self.lr * grad)


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015)."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self._init_moments()

    def _init_moments(self) -> None:
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def state_dict(self) -> dict:
        """Step count and first/second-moment buffers, copied — the
        checkpoint layer serializes these for crash-safe resume."""
        return {
            "t": self.t,
            "m": [m.copy() for m in self._m],
            "v": [v.copy() for v in self._v],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output into this optimizer."""
        moments_m, moments_v = state["m"], state["v"]
        if len(moments_m) != len(self.params) or len(moments_v) != len(self.params):
            raise ValueError(
                f"optimizer state holds {len(moments_m)}/{len(moments_v)} moment "
                f"buffers for {len(self.params)} parameters"
            )
        for param, m, v in zip(self.params, moments_m, moments_v):
            if m.shape != param.data.shape or v.shape != param.data.shape:
                raise ValueError(
                    f"optimizer moment shape {m.shape}/{v.shape} does not match "
                    f"parameter shape {param.data.shape}"
                )
        self.t = int(state["t"])
        self._m = [np.asarray(m, dtype=np.float32).copy() for m in moments_m]
        self._v = [np.asarray(v, dtype=np.float32).copy() for v in moments_v]

    def step(self) -> None:
        self.t += 1
        bias1 = 1.0 - self.beta1 ** self.t
        bias2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            grad = dense_grad(p.grad)
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            update = m_hat / (np.sqrt(v_hat) + self.eps)
            p.assign_(p.data - self.lr * update)


class _RowTable:
    """Adam moments of an embedding table.

    ``rows`` (sorted) lists the rows that ever had a nonzero gradient,
    or a moment with any bit set after a load, and ``m`` and ``v`` hold
    their moments in the same order; every other row's moments are
    ``+0``.
    """

    __slots__ = ("shape", "rows", "m", "v")

    def __init__(self, shape: tuple):
        self.shape = shape
        self.rows = np.empty(0, dtype=np.int64)
        self.m = np.empty((0,) + shape[1:], dtype=np.float32)
        self.v = np.empty_like(self.m)

    def whole(self, moment: np.ndarray) -> np.ndarray:
        """``moment`` (``m`` or ``v``) as a whole table, a fresh array."""
        out = np.zeros(self.shape, dtype=np.float32)
        out[self.rows] = moment
        return out

    def load(self, m: np.ndarray, v: np.ndarray) -> None:
        # By bit pattern, so a -0.0 moment (which a dense step turns
        # into +0.0) is live.
        bits = (m.view(np.uint32) != 0) | (v.view(np.uint32) != 0)
        self.rows = np.flatnonzero(bits.reshape(len(bits), -1).any(axis=1))
        self.m, self.v = m[self.rows], v[self.rows]

    def find(self, rows: np.ndarray) -> tuple:
        """For sorted ``rows``: which of them are live, and where."""
        at = np.searchsorted(self.rows, rows)
        found = at < self.rows.size
        found[found] = self.rows[at[found]] == rows[found]
        return found, at

    def grow(self, rows: np.ndarray) -> None:
        """Add ``rows`` (sorted) to the live set, with ``+0`` moments."""
        rows = rows[~self.find(rows)[0]]
        if not rows.size:
            return
        merged = np.concatenate([self.rows, rows])
        merged.sort()
        old = np.searchsorted(merged, self.rows)
        m = np.zeros((merged.size,) + self.shape[1:], dtype=np.float32)
        v = np.zeros_like(m)
        m[old], v[old] = self.m, self.v
        self.rows, self.m, self.v = merged, m, v


class FlatAdam(Adam):
    """Adam that pays for the entries a step moves — bitwise-identical
    updates to :class:`Adam`.

    The reference :class:`Adam` loops over parameters in Python, paying
    ~10 numpy dispatches per parameter per step; at STiSAN's ~50
    parameters that loop overhead rivals the actual arithmetic.
    ``FlatAdam`` registers the dense parameters into one contiguous
    float32 buffer so their update is a handful of vectorized numpy
    ops.  An embedding table (a ``row_table`` parameter) with more
    entries than all the unmarked parameters together is kept apart by
    its live rows, so a step over a large catalogue costs the rows the
    batch touched.

    Because every Adam operation is *elementwise*, running it on any
    subset of the parameters produces bit-identical per-element results
    — swapping ``Adam`` for ``FlatAdam`` changes nothing about a
    training run (``tests/test_fused.py`` asserts this).

    **Dead entries are fixed points.**  Dense Adam leaves an entry
    unchanged when its ``m`` and ``v`` are bitwise ``+0.0`` and its
    gradient is ``±0``: ``β·(+0) + (1-β)·(±0) = +0`` for both moments
    (``+0 + -0 = +0``), so ``m' = v' = +0``; the update is
    ``(+0/b1) / (sqrt(+0/b2) + eps) = +0/eps = +0``; and
    ``p - lr·(+0) = p`` for every ``p``, including ``-0``, ``±inf`` and
    NaN.  So the flat buffer steps every entry of the parameters that
    have a gradient, as views, and a table steps only its live rows:
    those that ever had a nonzero gradient entry (or, after
    :meth:`load_state_dict`, a moment with any bit set; a ``-0.0``
    moment counts).  A dead entry inside a live row is stepped as the
    fixed point above.  A table's gradient may be row-sparse (from an
    embedding lookup) or dense; either way its live rows are found from
    the rows it lists, the moments are gathered for those rows only,
    and nothing is allocated for the table at construction.

    Semantics preserved:

    - **version counters** — each step bumps the version of every
      parameter with a gradient exactly once, as the per-parameter path
      does.  A dense parameter is re-pointed via ``assign_`` at a slice
      view of the step's freshly allocated flat result buffer, which is
      never mutated afterwards, so earlier views of it stay valid.  If
      outside code replaces a dense parameter's array
      (``load_state_dict``, early-stopping restore), the detached view
      is detected by identity (`p.data is view`) and the flat buffer is
      re-synced from the parameter on the next step.
    - **tables step in place** — a table's live rows are written into
      its own array via ``index_put_``, so a step allocates nothing the
      size of the table; the version bumps even with no live row.
      Holders of the array see the new rows: ``Module.state_dict``,
      early-stopping snapshots and checkpoints copy it, and embedding
      lookups gather fresh arrays.
    - **missing gradients** — ``Adam`` skips parameters whose ``grad``
      is None (moments untouched, value unchanged); so does this step.
    - **checkpoints** — ``state_dict``/``load_state_dict`` present the
      exact per-parameter ``{"t", "m", "v"}`` format the checkpoint
      layer serializes, so ``Adam`` and ``FlatAdam`` checkpoints are
      interchangeable.
    """

    def _init_moments(self) -> None:
        for p in self.params:
            if p.data.dtype != np.float32:
                raise TypeError(
                    f"FlatAdam requires float32 parameters, got {p.data.dtype}"
                )
        self._shapes = [p.data.shape for p in self.params]
        sizes = [p.data.size for p in self.params]
        self._offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        # A marked table with no more entries than all the unmarked
        # parameters together costs no more to step in the flat buffer
        # than they do.
        marked = [getattr(p, "row_table", False) for p in self.params]
        rest = sum(size for size, table in zip(sizes, marked) if not table)
        self._tables: Dict[int, _RowTable] = {
            i: _RowTable(p.data.shape)
            for i, (p, table) in enumerate(zip(self.params, marked))
            if table and p.data.size > rest
        }
        # The dense parameters' slices of the flat buffers.
        self._spans: Dict[int, slice] = {}
        total = 0
        for i, size in enumerate(sizes):
            if i not in self._tables:
                self._spans[i] = slice(total, total + size)
                total += size
        self._flat_p = np.empty(total, dtype=np.float32)
        for i, span in self._spans.items():
            self._flat_p[span] = self.params[i].data.ravel()
        self._flat_m = np.zeros(total, dtype=np.float32)
        self._flat_v = np.zeros(total, dtype=np.float32)
        self._flat_g = np.empty(total, dtype=np.float32)
        self._views: List[Optional[np.ndarray]] = [None] * len(self.params)

    def state_dict(self) -> dict:
        m, v = [], []
        for i, shape in enumerate(self._shapes):
            table = self._tables.get(i)
            if table is not None:
                m.append(table.whole(table.m))
                v.append(table.whole(table.v))
            else:
                m.append(self._flat_m[self._spans[i]].reshape(shape).copy())
                v.append(self._flat_v[self._spans[i]].reshape(shape).copy())
        return {"t": self.t, "m": m, "v": v}

    def load_state_dict(self, state: dict) -> None:
        moments_m, moments_v = state["m"], state["v"]
        if len(moments_m) != len(self.params) or len(moments_v) != len(self.params):
            raise ValueError(
                f"optimizer state holds {len(moments_m)}/{len(moments_v)} moment "
                f"buffers for {len(self.params)} parameters"
            )
        for param, m, v in zip(self.params, moments_m, moments_v):
            if np.shape(m) != param.data.shape or np.shape(v) != param.data.shape:
                raise ValueError(
                    f"optimizer moment shape {np.shape(m)}/{np.shape(v)} does not "
                    f"match parameter shape {param.data.shape}"
                )
        self.t = int(state["t"])
        for i, (m, v) in enumerate(zip(moments_m, moments_v)):
            m = np.asarray(m, dtype=np.float32)
            v = np.asarray(v, dtype=np.float32)
            if i in self._tables:
                self._tables[i].load(m, v)
            else:
                self._flat_m[self._spans[i]] = m.ravel()
                self._flat_v[self._spans[i]] = v.ravel()

    # ------------------------------------------------------------------
    # Flat-gradient surface (the data-parallel trainer's contract)
    # ------------------------------------------------------------------
    @property
    def flat_size(self) -> int:
        """Total number of float32 elements across all parameters."""
        return int(self._offsets[-1])

    @property
    def grad_offsets(self) -> np.ndarray:
        """Per-parameter ``[start, end)`` offsets into the flat layout
        (length ``len(params) + 1``); read-only copy."""
        return self._offsets.copy()

    def write_flat_grads(self, out: np.ndarray, touched: Optional[np.ndarray] = None) -> None:
        """Flatten every parameter's current gradient into ``out``.

        ``out`` must be a ``(flat_size,)`` float32 array — typically one
        logical-shard row of a shared-memory reduce buffer.  Parameters
        with no gradient get exact-zero segments; ``touched`` (optional
        ``(len(params),)`` uint8) records which parameters contributed,
        so an OR-reduce across shards can replay ``Adam``'s
        missing-gradient skip semantics after the all-reduce.
        """
        if out.shape != (self.flat_size,) or out.dtype != np.float32:
            raise ValueError(
                f"flat gradient buffer must be ({self.flat_size},) float32, "
                f"got {out.shape} {out.dtype}"
            )
        offsets = self._offsets
        for i, p in enumerate(self.params):
            a, b = offsets[i], offsets[i + 1]
            if p.grad is None:
                out[a:b] = 0.0
                if touched is not None:
                    touched[i] = 0
            else:
                out[a:b] = dense_grad(p.grad).ravel()
                if touched is not None:
                    touched[i] = 1

    def step_flat(self, flat_grad: np.ndarray, missing: Iterable[int] = ()) -> None:
        """One Adam step from an externally reduced flat gradient.

        Bitwise-identical arithmetic to :meth:`step` — both funnel into
        the same update — but the gradient arrives already flattened
        (and, in data-parallel training, already all-reduced in fixed
        shard order).  ``missing`` lists parameter indices that received
        no gradient on *any* shard; their values and moments are
        preserved exactly as the per-parameter path does.
        """
        if flat_grad.shape != (self.flat_size,) or flat_grad.dtype != np.float32:
            raise ValueError(
                f"flat gradient must be ({self.flat_size},) float32, "
                f"got {flat_grad.shape} {flat_grad.dtype}"
            )
        missing = sorted(set(int(i) for i in missing))
        offsets = self._offsets
        grads = [
            None if i in missing else flat_grad[offsets[i]:offsets[i + 1]].reshape(shape)
            for i, shape in enumerate(self._shapes)
        ]
        self._apply(grads, missing)

    def step(self) -> None:
        self._apply([p.grad for p in self.params], [])

    def _apply(
        self,
        grads: List[Optional[Union[np.ndarray, RowSparseGrad]]],
        missing: List[int],
    ) -> None:
        """The Adam update of every parameter with a gradient (shared by
        :meth:`step` and :meth:`step_flat`)."""
        for i in missing:
            if not 0 <= i < len(self.params):
                raise IndexError(f"missing-gradient index {i} out of range")
        self.t += 1
        bias1 = 1.0 - self.beta1 ** self.t
        bias2 = 1.0 - self.beta2 ** self.t
        if self._spans:
            self._step_flat_buffer(grads, bias1, bias2)
        for i, table in self._tables.items():
            if grads[i] is not None:
                self._step_table(self.params[i], table, grads[i], bias1, bias2)

    def _update(self, p, g, m, v, bias1: float, bias2: float) -> np.ndarray:
        """Adam on matching arrays: ``m`` and ``v`` in place, returns the
        new parameter values."""
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        update = (m / bias1) / (np.sqrt(v / bias2) + self.eps)
        return p - self.lr * update

    def _step_flat_buffer(self, grads, bias1: float, bias2: float) -> None:
        flat_p, flat_g = self._flat_p, self._flat_g
        sel = slice(None)  # every entry, as views
        for i, span in self._spans.items():
            param = self.params[i]
            if param.data is not self._views[i]:
                # The parameter array was replaced behind our back
                # (load_state_dict / restore_best) — re-sync the slice.
                flat_p[span] = param.data.ravel()
            if grads[i] is None:
                if isinstance(sel, slice):
                    sel = np.ones(flat_p.size, dtype=bool)
                sel[span] = False
            else:
                flat_g[span] = dense_grad(grads[i]).ravel()
        if isinstance(sel, slice):
            # The moment views are updated in place.
            new_p = self._update(flat_p, flat_g, self._flat_m, self._flat_v, bias1, bias2)
        else:
            m, v = self._flat_m[sel], self._flat_v[sel]
            stepped = self._update(flat_p[sel], flat_g[sel], m, v, bias1, bias2)
            self._flat_m[sel] = m
            self._flat_v[sel] = v
            new_p = flat_p.copy()
            new_p[sel] = stepped
        # Adopt the freshly allocated result buffer and hand every
        # parameter a view into it — ``new_p`` is never mutated after
        # this point so the views stay valid.
        self._flat_p = new_p
        for i, span in self._spans.items():
            param = self.params[i]
            param.assign_(new_p[span].reshape(self._shapes[i]))
            self._views[i] = param.data

    def _step_table(self, param, table: _RowTable, grad, bias1: float, bias2: float) -> None:
        sparse = isinstance(grad, RowSparseGrad)
        if sparse:
            values = grad.values.reshape(grad.rows.size, -1)
            table.grow(grad.rows[(values != 0).any(axis=1)])
        else:
            table.grow(np.flatnonzero((grad.reshape(len(grad), -1) != 0).any(axis=1)))
        rows = table.rows
        if sparse:
            # Live rows the gradient does not list have a +0 gradient.
            g = np.zeros_like(table.m)
            listed, at = table.find(grad.rows)
            g[at[listed]] = grad.values[listed]
        else:
            g = grad[rows]
        stepped = self._update(param.data[rows], g, table.m, table.v, bias1, bias2)
        param.index_put_(rows, stepped)
