"""First-order optimizers: SGD (with momentum), Adam, AdamW.

The paper trains with Adam at learning rate 1e-3; the others exist for
baselines (BPR/FPMC traditionally use SGD) and ablation studies.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from .module import Parameter


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
        """Global-norm gradient clipping; returns the pre-clip norm."""
        total = 0.0
        for p in self.params:
            if p.grad is not None:
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
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
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
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v += grad
                grad = v
            p.assign_(p.data - self.lr * grad)


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with optional decoupled weight decay."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        decoupled: bool = False,
    ):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.decoupled = decoupled
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
            grad = p.grad
            if self.weight_decay and not self.decoupled:
                grad = grad + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            update = m_hat / (np.sqrt(v_hat) + self.eps)
            if self.weight_decay and self.decoupled:
                update = update + self.weight_decay * p.data
            p.assign_(p.data - self.lr * update)


class FlatAdam(Adam):
    """Adam on one contiguous flat float32 buffer — bitwise-identical updates.

    The reference :class:`Adam` loops over parameters in Python, paying
    ~10 numpy dispatches per parameter per step; at STiSAN's ~50
    parameters that loop overhead rivals the actual arithmetic.
    ``FlatAdam`` registers every parameter into one contiguous float32
    buffer so the whole update is a handful of vectorized numpy ops.

    Because every Adam operation is *elementwise*, running it on any
    subset of the concatenated parameters produces bit-identical
    per-element results — swapping ``Adam`` for ``FlatAdam`` changes
    nothing about a training run (``tests/test_fused.py`` asserts this).

    **Only live entries are touched.**  Dense Adam leaves an entry
    unchanged when its ``m`` and ``v`` are bitwise ``+0.0`` and its
    gradient is ``±0``: ``β·(+0) + (1-β)·(±0) = +0`` for both moments
    (``+0 + -0 = +0``), so ``m' = v' = +0``; the update is
    ``(+0/b1) / (sqrt(+0/b2) + eps) = +0/eps = +0``; and
    ``p - lr·(+0) = p`` for every ``p``, including ``-0``, ``±inf`` and
    NaN.  A boolean mask over the flat buffer marks every entry that has
    ever had a nonzero gradient (or a moment with any bit set, after
    :meth:`load_state_dict`; a ``-0.0`` moment counts).  Each step ORs
    in the new gradient's nonzeros and selects the live entries of the
    parameters that have a gradient.  When they are under a quarter of
    the buffer (an embedding step over a large catalogue) it gathers
    them with one ``np.flatnonzero``, runs the unchanged float32
    expression on them and scatters the result into a copy of the
    parameter buffer, so the step costs the rows the batch touched, not
    the catalogue.  Otherwise an index gather would cost more than it
    saves: when every parameter has a gradient the step runs on the
    whole buffer as views, and the dead entries come out unchanged by
    the fixed point above; when one lacks a gradient it indexes with the
    boolean mask.  A nonzero ``weight_decay`` moves every entry, so it
    marks every entry live.

    Semantics preserved:

    - **assign_/version counters** — after each step every parameter is
      re-pointed at a slice view of the step's freshly allocated result
      buffer via ``assign_`` (bumping its version as the per-parameter
      path does).  The result buffer is never mutated afterwards, so
      the views are stable.  If outside code replaces a parameter's array
      (``load_state_dict``, early-stopping restore), the detached view
      is detected by identity (`p.data is view`) and the flat buffer is
      re-synced from the parameter on the next step.
    - **missing gradients** — ``Adam`` skips parameters whose ``grad``
      is None (moments untouched, value unchanged); the flat step
      simply does not gather their segments.
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
        total = int(self._offsets[-1])
        self._flat_p = np.empty(total, dtype=np.float32)
        for p, a, b in zip(self.params, self._offsets, self._offsets[1:]):
            self._flat_p[a:b] = p.data.ravel()
        self._flat_m = np.zeros(total, dtype=np.float32)
        self._flat_v = np.zeros(total, dtype=np.float32)
        self._flat_g = np.empty(total, dtype=np.float32)
        self._live = np.zeros(total, dtype=bool)
        self._views: List[Optional[np.ndarray]] = [None] * len(self.params)
        # Mirror the flat moments into the per-parameter lists the base
        # class exposes (kept as views so reads stay coherent).
        self._m = self._segments(self._flat_m)
        self._v = self._segments(self._flat_v)

    def _segments(self, flat: np.ndarray) -> List[np.ndarray]:
        return [
            flat[a:b].reshape(shape)
            for a, b, shape in zip(self._offsets, self._offsets[1:], self._shapes)
        ]

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
        for a, b, m, v in zip(self._offsets, self._offsets[1:], moments_m, moments_v):
            self._flat_m[a:b] = np.asarray(m, dtype=np.float32).ravel()
            self._flat_v[a:b] = np.asarray(v, dtype=np.float32).ravel()
        # By bit pattern, so a -0.0 moment (which a dense step turns
        # into +0.0) is live.
        self._live = (self._flat_m.view(np.uint32) != 0) | (self._flat_v.view(np.uint32) != 0)

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
                out[a:b] = p.grad.ravel()
                if touched is not None:
                    touched[i] = 1

    def step_flat(self, flat_grad: np.ndarray, missing: Iterable[int] = ()) -> None:
        """One Adam step from an externally reduced flat gradient.

        Bitwise-identical arithmetic to :meth:`step` — both funnel into
        the same live-entry update — but the gradient arrives already
        flattened (and, in data-parallel training, already all-reduced
        in fixed shard order).  ``missing`` lists parameter indices that
        received no gradient on *any* shard; their values and moments
        are preserved exactly as the per-parameter path does.
        """
        if flat_grad.shape != (self.flat_size,) or flat_grad.dtype != np.float32:
            raise ValueError(
                f"flat gradient must be ({self.flat_size},) float32, "
                f"got {flat_grad.shape} {flat_grad.dtype}"
            )
        offsets = self._offsets
        for i, p in enumerate(self.params):
            if p.data is not self._views[i]:
                # Parameter array replaced behind our back
                # (load_state_dict / restore_best) — re-sync the slice.
                self._flat_p[offsets[i]:offsets[i + 1]] = p.data.ravel()
        self._apply_flat(flat_grad, sorted(set(int(i) for i in missing)))

    def step(self) -> None:
        offsets = self._offsets
        flat_p, flat_g = self._flat_p, self._flat_g
        missing: List[int] = []
        for i, p in enumerate(self.params):
            a, b = offsets[i], offsets[i + 1]
            if p.data is not self._views[i]:
                # The parameter array was replaced behind our back
                # (load_state_dict / restore_best) — re-sync the slice.
                flat_p[a:b] = p.data.ravel()
            if p.grad is None:
                missing.append(i)
                flat_g[a:b] = 0.0
            else:
                flat_g[a:b] = p.grad.ravel()
        self._apply_flat(flat_g, missing)

    def _apply_flat(self, flat_g: np.ndarray, missing: List[int]) -> None:
        """The Adam update over the live entries of the flat buffers
        (shared by :meth:`step` and :meth:`step_flat`)."""
        offsets = self._offsets
        for i in missing:
            if not 0 <= i < len(self.params):
                raise IndexError(f"missing-gradient index {i} out of range")
        self.t += 1
        bias1 = 1.0 - self.beta1 ** self.t
        bias2 = 1.0 - self.beta2 ** self.t

        live = self._live
        if self.weight_decay:
            live[:] = True
        else:
            live |= flat_g != 0
        sel = live
        if missing:
            sel = live.copy()
            for i in missing:
                sel[offsets[i]:offsets[i + 1]] = False
        if 4 * np.count_nonzero(sel) < sel.size:
            sel = np.flatnonzero(sel)
        elif not missing:
            sel = slice(None)  # every entry, as views: the dense step

        p = self._flat_p[sel]
        g = flat_g[sel]
        if self.weight_decay and not self.decoupled:
            g = g + self.weight_decay * p
        m, v = self._flat_m[sel], self._flat_v[sel]
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        update = (m / bias1) / (np.sqrt(v / bias2) + self.eps)
        if self.weight_decay and self.decoupled:
            update = update + self.weight_decay * p
        stepped = p - self.lr * update
        if isinstance(sel, slice):
            new_p = stepped  # the moment views were updated in place
        else:
            self._flat_m[sel] = m
            self._flat_v[sel] = v
            new_p = self._flat_p.copy()
            new_p[sel] = stepped

        # Adopt the freshly allocated result buffer and hand every
        # parameter a view into it — ``new_p`` is never mutated after
        # this point so the views stay valid.
        self._flat_p = new_p
        for i, (param, shape) in enumerate(zip(self.params, self._shapes)):
            param.assign_(new_p[offsets[i]:offsets[i + 1]].reshape(shape))
            self._views[i] = param.data


def AdamW(params: Iterable[Parameter], lr: float = 1e-3, weight_decay: float = 0.01, **kw) -> Adam:
    """Adam with decoupled weight decay (Loshchilov & Hutter)."""
    return Adam(params, lr=lr, weight_decay=weight_decay, decoupled=True, **kw)
