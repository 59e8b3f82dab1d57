"""Differentiable functional operations built on :mod:`repro.nn.tensor`.

These compose the primitive Tensor ops into the numerically-stable
building blocks used by the models: softmax, log-sigmoid losses,
layer normalization, dropout, and the binary cross-entropy variants
used in STiSAN's training objective.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
from scipy import sparse as _sparse

from .rowsparse import RowSparseGrad
from .tensor import Tensor, is_grad_enabled


def relu(x: Tensor) -> Tensor:
    return x.relu()


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (fused backward)."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    ex = np.exp(shifted)
    out_data = ex / ex.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            x._accumulate((out_data * (grad - dot)).astype(np.float32, copy=False))

    return Tensor._make(out_data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - logsumexp
    soft = np.exp(out_data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(
                (grad - soft * grad.sum(axis=axis, keepdims=True)).astype(
                    np.float32, copy=False
                )
            )

    return Tensor._make(out_data, (x,), backward)


def log_sigmoid(x: Tensor) -> Tensor:
    """log(sigmoid(x)) computed stably: -softplus(-x)."""
    data = x.data
    out_data = np.where(data >= 0, -np.log1p(np.exp(-data)), data - np.log1p(np.exp(data)))
    sig = np.where(
        data >= 0,
        1.0 / (1.0 + np.exp(-np.clip(data, 0, None))),
        np.exp(np.clip(data, None, 0)) / (1.0 + np.exp(np.clip(data, None, 0))),
    )

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate((grad * (1.0 - sig)).astype(np.float32, copy=False))

    return Tensor._make(out_data.astype(np.float32), (x,), backward)


def layer_norm(
    x: Tensor, alpha: Tensor, beta: Tensor, eps: float = 1e-5
) -> Tensor:
    """LayerNorm over the last dimension — Eq. (9) of the paper.

    ``alpha`` and ``beta`` are the learned scale and shift parameters.
    """
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    normed = (x - mu) * ((var + eps) ** -0.5)
    return normed * alpha + beta


def dropout(
    x: Tensor,
    rate: float,
    rng: np.random.Generator,
    training: bool = True,
    layout=None,
) -> Tensor:
    """Inverted dropout: scales kept activations by 1/(1-rate).

    ``layout`` says ``x`` holds some entries of a larger tensor: that
    tensor's shape is ``layout.full_shape(x.shape)`` and
    ``layout.pack(full)`` takes ``x``'s entries out of it (a
    :class:`repro.core.packing.Packing` is one).  The mask is drawn at
    the full shape and packed, so the generator advances exactly as the
    full draw would and every kept entry gets the same mask.
    """
    if not training or rate <= 0.0 or not is_grad_enabled():
        return x
    if rate >= 1.0:
        raise ValueError("dropout rate must be < 1")
    keep = 1.0 - rate
    # One expression, so the float64 draw and the boolean mask are freed
    # as soon as they are used: holding their megabytes through the
    # multiply cost thousands of page faults per training step.
    if layout is None:
        mask = (rng.random(x.shape) < keep).astype(np.float32) / keep
    else:
        mask = (layout.pack(rng.random(layout.full_shape(x.shape))) < keep).astype(np.float32) / keep
    return x * Tensor(mask)


def binary_cross_entropy_with_logits(
    logits: Tensor, targets: np.ndarray, reduction: str = "mean"
) -> Tensor:
    """Stable BCE on raw scores: max(x,0) - x*y + log(1+exp(-|x|))."""
    y = Tensor(np.asarray(targets, dtype=np.float32))
    loss = logits.relu() - logits * y + softplus(-abs_tensor(logits))
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    if reduction == "none":
        return loss
    raise ValueError(f"unknown reduction {reduction!r}")


def softplus(x: Tensor) -> Tensor:
    data = x.data
    out_data = np.where(data > 20, data, np.log1p(np.exp(np.clip(data, None, 20))))
    sig = 1.0 / (1.0 + np.exp(-np.clip(data, -60, 60)))

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate((grad * sig).astype(np.float32, copy=False))

    return Tensor._make(out_data.astype(np.float32), (x,), backward)


def abs_tensor(x: Tensor) -> Tensor:
    out_data = np.abs(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate((grad * np.sign(x.data)).astype(np.float32, copy=False))

    return Tensor._make(out_data, (x,), backward)


def row_sums(idx: np.ndarray, grad: np.ndarray, num_rows: int) -> RowSparseGrad:
    """Sum ``grad`` rows by index into a ``num_rows`` table, row-sparse:
    the embedding backward, bitwise equal to ``np.add.at`` on zeros.

    A one-entry-per-index CSR selection matrix lets ``scipy.sparse`` do
    the transposed matmul, which visits each row's entries in input
    order, in float32 (5-25x faster than ``np.add.at`` at training
    shapes).  Its columns are the distinct rows (``np.unique``), or,
    for a table no larger than the lookup, every row: then listing them
    costs less than finding them.
    """
    flat_idx = idx.reshape(-1)
    n = flat_idx.shape[0]
    dim = grad.shape[-1]
    flat_g = np.ascontiguousarray(grad, dtype=np.float32).reshape(n, dim)
    if num_rows <= n:
        rows, column = np.arange(num_rows, dtype=np.int64), flat_idx
    else:
        rows, column = np.unique(flat_idx, return_inverse=True)
    selector = _sparse.csr_matrix(
        (np.ones(n, dtype=np.float32), column.reshape(-1), np.arange(n + 1, dtype=np.int64)),
        shape=(n, rows.size),
    )
    return RowSparseGrad(rows, np.asarray(selector.T @ flat_g, dtype=np.float32), num_rows)


def scatter_rows(x: Tensor, index: np.ndarray, shape: Sequence[int]) -> Tensor:
    """Rows of ``x`` placed among zeros.

    ``x``'s leading axes are ``index.shape``; the output has shape
    ``(*shape, *tail)``, where ``tail`` is the rest of ``x``'s shape, and
    is zero except that entry ``index[j]`` of the flattened ``shape``
    holds ``x[j]``.  ``index`` must not repeat an entry; the backward is
    the gather ``grad[index]``.
    """
    idx = np.asarray(index, dtype=np.int64)
    tail = x.shape[idx.ndim:]
    out_data = np.zeros((*shape, *tail), dtype=np.float32)
    out_data.reshape(-1, *tail)[idx] = x.data

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad.reshape(-1, *tail)[idx])

    return Tensor._make(out_data, (x,), backward)


def embedding_lookup(weight: Tensor, indices: np.ndarray, padding_idx: Optional[int] = None) -> Tensor:
    """Gather rows of ``weight`` by integer ``indices``.

    ``padding_idx`` rows contribute zero vectors and receive no gradient,
    implementing the paper's zero-encoded padding check-ins.  The
    gradient reaches ``weight`` row-sparse (:func:`row_sums`).
    """
    idx = np.asarray(indices)  # repro-lint: disable=REPRO-F64 -- integer indices, never differentiated
    out_data = np.take(weight.data, idx, axis=0)  # a fresh array, never a view
    if padding_idx is not None:
        out_data[idx == padding_idx] = 0.0

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad:
            g = grad
            if padding_idx is not None:
                g = np.where((idx == padding_idx)[..., None], np.float32(0.0), grad)
            weight._accumulate(row_sums(idx, g, weight.data.shape[0]))

    return Tensor._make(out_data, (weight,), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray, ignore_index: Optional[int] = None) -> Tensor:
    """Mean token-level cross entropy over the last axis of ``logits``."""
    targets = np.asarray(targets)  # repro-lint: disable=REPRO-F64 -- integer class ids, never differentiated
    logp = log_softmax(logits, axis=-1)
    flat_logp = logp.reshape(-1, logits.shape[-1])
    flat_t = targets.reshape(-1)
    if ignore_index is not None:
        keep = flat_t != ignore_index
    else:
        keep = np.ones_like(flat_t, dtype=bool)
    rows = np.nonzero(keep)[0]
    picked = flat_logp[rows, flat_t[keep]]
    return -picked.mean()
