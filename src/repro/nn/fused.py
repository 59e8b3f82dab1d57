"""Attention and LayerNorm kernels for the numpy autograd engine.

The textbook formulation builds attention out of ~10 primitive autograd
ops (``q @ k.T``, scale, relation add, mask, softmax, value
aggregation), each allocating fresh intermediates and a Python closure.
At STiSAN's paper config the N=4 IAAB blocks dominate training cost,
and most of it is allocator traffic and Python op overhead rather than
BLAS.  This module is the one implementation every model uses; it
collapses those chains into two hand-differentiated kernels:

``fused_causal_attention``
    scores + relation add + mask + softmax + value aggregation in one
    forward with a single hand-derived backward (single- and
    multi-head; the relation bias may be a constant array or a
    differentiable Tensor).  IAAB (Eq. 6), TAAD (Eq. 10) and
    :func:`repro.nn.attention.scaled_dot_product_attention` call it.

``layer_norm``
    the full LayerNorm (mean/var/normalize/scale/shift — ~10 primitive
    ops) as one op with the standard closed-form backward.

Each kernel has a primitive-op oracle that exists only to test it:
:func:`reference_causal_attention` here, and
:func:`repro.nn.functional.layer_norm`.  The contract, enforced by
``tests/test_fused.py`` and ``tests/test_nn_gradcheck.py``:

- **forward is bitwise identical** to the oracle — the same numpy
  operations are applied in the same order with the same float32
  scalars;
- **backward matches the oracle within 1e-6** — the hand-derived
  gradients are the same math evaluated in a fused order, so
  individual GEMMs may round differently in the last ulp — and
  finite differences within the gradcheck tolerances.

Call sites reach the kernels through this module
(``fused.fused_causal_attention(...)``), so a test can swap an oracle in
with ``unittest.mock.patch.object`` and compare whole models leg
against leg.

Scratch intermediates come from the gradient arena when one is
installed (see :class:`repro.nn.tensor.GradArena`); op outputs and
parameter gradients are always ordinary arrays.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from . import functional as F
from .tensor import Tensor, arena_empty, unbroadcast

__all__ = [
    "fused_causal_attention",
    "layer_norm",
    "reference_causal_attention",
]

#: Matches repro.nn.attention.NEG_INF (not imported to avoid a cycle).
_NEG_INF = np.float32(-1e9)


def fused_causal_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    relation_bias: Optional[Union[Tensor, np.ndarray]] = None,
    mask: Optional[np.ndarray] = None,
    scale: Optional[float] = None,
    return_weights: bool = False,
) -> Tensor | Tuple[Tensor, np.ndarray]:
    """``Softmax(Q K^T * scale + bias, masked) V`` as a single autograd op.

    Parameters
    ----------
    q, k, v : (..., n_q, d), (..., n_k, d), (..., n_k, d_v) Tensors.
    relation_bias : additive pre-softmax term, broadcastable to the
        score map.  A plain ndarray is treated as a constant; a Tensor
        participates in the backward pass.
    mask : boolean array broadcastable to (..., n_q, n_k); True = block
        (filled with -1e9 before the softmax, zero gradient).
    scale : score multiplier; defaults to ``1/sqrt(d)``.
    return_weights : additionally return a detached copy of the
        post-softmax attention map (interpretability figures).
    """
    d = q.shape[-1]
    scale32 = np.float32(1.0 / np.sqrt(d)) if scale is None else np.float32(scale)
    bias_tensor = relation_bias if isinstance(relation_bias, Tensor) else None
    bias_data = (
        None
        if relation_bias is None
        else (bias_tensor.data if bias_tensor is not None else relation_bias)
    )
    mask_arr = None if mask is None else np.asarray(mask, dtype=bool)

    q_data, k_data, v_data = q.data, k.data, v.data
    kt = np.swapaxes(k_data, -1, -2)
    score_shape = np.broadcast_shapes(q_data.shape[:-1] + (kt.shape[-1],),
                                      kt.shape[:-2] + q_data.shape[-2:-1] + kt.shape[-1:])
    scores = arena_empty(score_shape)
    np.matmul(q_data, kt, out=scores)
    scores *= scale32
    if bias_data is not None:
        scores += bias_data
    if mask_arr is not None:
        np.copyto(scores, _NEG_INF, where=mask_arr)
    # Numerically-stable softmax, in place (bit-identical to F.softmax).
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    weights = scores  # (..., n_q, n_k), saved for backward
    out_data = np.matmul(weights, v_data)

    def backward(grad: np.ndarray) -> None:
        if v.requires_grad:
            gv = np.matmul(np.swapaxes(weights, -1, -2), grad)
            v._accumulate(unbroadcast(gv, v_data.shape))
        need_scores = (
            q.requires_grad
            or k.requires_grad
            or (bias_tensor is not None and bias_tensor.requires_grad)
        )
        if not need_scores:
            return
        # dW = g V^T ; dS = W * (dW - sum(dW * W)) — fused softmax backward.
        ds = arena_empty(weights.shape)
        np.matmul(grad, np.swapaxes(v_data, -1, -2), out=ds)
        dot = (ds * weights).sum(axis=-1, keepdims=True)
        ds -= dot
        ds *= weights
        if mask_arr is not None:
            np.copyto(ds, np.float32(0.0), where=mask_arr)
        if bias_tensor is not None and bias_tensor.requires_grad:
            # ``ds`` itself may be kept (or copied) by _accumulate as
            # bias.grad, so the scaled score gradient below goes into a
            # separate scratch buffer rather than mutating ds in place.
            bias_tensor._accumulate(unbroadcast(ds, bias_tensor.data.shape))
        scaled = arena_empty(ds.shape)
        np.multiply(ds, scale32, out=scaled)
        if q.requires_grad:
            q._accumulate(unbroadcast(np.matmul(scaled, k_data), q_data.shape))
        if k.requires_grad:
            gk = np.matmul(np.swapaxes(scaled, -1, -2), q_data)
            k._accumulate(unbroadcast(gk, k_data.shape))

    parents = (q, k, v) if bias_tensor is None else (q, k, v, bias_tensor)
    out = Tensor._make(out_data, parents, backward)
    if return_weights:
        return out, weights.copy()
    return out


def layer_norm(x: Tensor, alpha: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """LayerNorm over the last dimension as a single autograd op.

    Forward is bitwise identical to the reference composition in
    :func:`repro.nn.functional.layer_norm`; backward is the closed-form
    LayerNorm gradient.
    """
    xd = x.data
    inv_count = np.float32(1.0 / xd.shape[-1])
    mu = xd.sum(axis=-1, keepdims=True) * inv_count
    centered = xd - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_count
    inv = (var + np.float32(eps)) ** -0.5
    normed = centered * inv
    out_data = normed * alpha.data + beta.data

    def backward(grad: np.ndarray) -> None:
        if beta.requires_grad:
            beta._accumulate(unbroadcast(grad, beta.data.shape))
        if alpha.requires_grad:
            alpha._accumulate(unbroadcast(grad * normed, alpha.data.shape))
        if x.requires_grad:
            dn = grad * alpha.data
            dn_mean = dn.sum(axis=-1, keepdims=True) * inv_count
            proj = (dn * normed).sum(axis=-1, keepdims=True) * inv_count
            x._accumulate(inv * (dn - dn_mean - normed * proj))

    return Tensor._make(out_data, (x, alpha, beta), backward)


def reference_causal_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    relation_bias: Optional[Union[Tensor, np.ndarray]] = None,
    mask: Optional[np.ndarray] = None,
    scale: Optional[float] = None,
    return_weights: bool = False,
) -> Tensor | Tuple[Tensor, np.ndarray]:
    """Test oracle for :func:`fused_causal_attention`, same signature.

    The textbook primitive-op chain: every step is its own autograd op.
    Models never call it; the equivalence tests patch it over the
    kernel to check the kernel's forward bitwise and its backward
    within 1e-6.
    """
    d = q.shape[-1]
    scale32 = np.float32(1.0 / np.sqrt(d)) if scale is None else np.float32(scale)
    scores = (q @ k.transpose()) * scale32
    if relation_bias is not None:
        bias = relation_bias
        if not isinstance(bias, Tensor):
            bias = Tensor(np.ascontiguousarray(bias))
        scores = scores + bias
    if mask is not None:
        scores = scores.masked_fill(mask, _NEG_INF)
    weights = F.softmax(scores, axis=-1)
    out = weights @ v
    if return_weights:
        return out, weights.data.copy()
    return out
