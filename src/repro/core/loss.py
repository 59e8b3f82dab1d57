"""Weighted binary cross-entropy loss — Section III-H, Eq. (12).

For each step with target o_i and L spatial negatives:

    Loss = − Σ [ log σ(y_{i,o_i}) + Σ_l w_l · log(1 − σ(y_{i,l})) ]

with importance weights  w_l = exp(y_{i,l}/T) / Σ_l' exp(y_{i,l'}/T)
(proposed by GeoSAN).  Higher-scored ("harder") negatives get more
weight; as T → ∞ the weighting becomes uniform.  The weights are
treated as constants (no gradient flows through them).
"""

from __future__ import annotations

import numpy as np

from ..nn import functional as F
from ..nn.tensor import Tensor, is_grad_enabled


def weighted_bce_loss(
    pos_scores: Tensor,
    neg_scores: Tensor,
    target_mask: np.ndarray,
    temperature: float = 1.0,
    normalizer: float | None = None,
) -> Tensor:
    """
    Parameters
    ----------
    pos_scores : (b, n) score of the true next POI at each step.
    neg_scores : (b, n, L) scores of the sampled negatives.
    target_mask : (b, n) bool, True where a real target exists
        (padding steps contribute nothing).
    temperature : the paper's T controlling the negative distribution.
    normalizer : override for the averaging denominator.  Defaults to
        this batch's real-target count; data-parallel training passes
        the *global* batch's count so each logical shard's loss (and
        gradient) is pre-scaled consistently and the fixed-order shard
        sum reproduces the global average for any worker count.

    Returns
    -------
    Scalar Tensor: total loss averaged over real target steps.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    mask = np.asarray(target_mask, dtype=np.float32)
    count = max(float(mask.sum()) if normalizer is None else float(normalizer), 1.0)

    # log σ(y⁺) — stable form.
    pos_term = F.log_sigmoid(pos_scores) * Tensor(mask)

    # Importance weights over negatives: softmax of detached scores / T.
    logits = neg_scores.data.astype(np.float64) / temperature
    logits = logits - logits.max(axis=-1, keepdims=True)
    w = np.exp(logits)
    w = w / np.maximum(w.sum(axis=-1, keepdims=True), 1e-12)

    # log(1 − σ(y⁻)) = −softplus(y⁻).
    neg_log = F.softplus(neg_scores) * Tensor(w.astype(np.float32))
    neg_term = neg_log.sum(axis=-1) * Tensor(mask)

    total = -(pos_term.sum() - neg_term.sum())
    return total * (1.0 / count)


def weighted_bce_loss_sharded(
    pos_scores: Tensor,
    neg_scores: Tensor,
    target_mask: np.ndarray,
    temperature: float = 1.0,
    shard_size: int = 1024,
    normalizer: float | None = None,
) -> Tensor:
    """Eq. (12) computed in fixed-size shards along the flattened
    ``(b·n)`` step axis — the generation-sharded loss idiom (detach the
    scores, rebuild each shard as a leaf graph, run that shard's
    backward immediately, accumulate into full-size gradient buffers).

    Peak memory is one shard's worth of loss intermediates plus the
    input-sized gradient buffers (which any backward needs anyway), so
    it is flat in both catalogue size and shard count.  Equivalence to
    :func:`weighted_bce_loss`:

    - **gradients are bitwise identical** — every op in Eq. (12) is
      elementwise or a per-step softmax over the L negatives, so a
      shard's gradient slice equals the same slice of the unsharded
      gradient (both are scaled by the *global* real-step count, passed
      to each shard via ``normalizer``);
    - **forward is bitwise per shard**; the returned scalar differs
      from the unsharded value only by float32 summation order (≤1e-6,
      the tolerance the equivalence suite pins).

    ``shard_size`` is the number of (batch, step) rows per shard; the
    last shard may be ragged.  A non-positive ``shard_size`` delegates
    to the unsharded loss.
    """
    if shard_size <= 0:
        return weighted_bce_loss(
            pos_scores, neg_scores, target_mask, temperature, normalizer
        )
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    mask = np.asarray(target_mask, dtype=np.float32)
    count = max(float(mask.sum()) if normalizer is None else float(normalizer), 1.0)

    num_neg = neg_scores.data.shape[-1]
    pos_flat = pos_scores.data.reshape(-1)
    neg_flat = neg_scores.data.reshape(-1, num_neg)
    mask_flat = mask.reshape(-1)
    m = pos_flat.shape[0]

    needs_grad = is_grad_enabled() and (
        pos_scores.requires_grad or neg_scores.requires_grad
    )
    pos_grad = np.zeros_like(pos_flat) if needs_grad else None
    neg_grad = np.zeros_like(neg_flat) if needs_grad else None

    total = np.zeros((), dtype=np.float32)
    for lo in range(0, m, shard_size):
        hi = min(lo + shard_size, m)
        # Detached leaves over views of the score slices: the shard's
        # graph is born and dies inside this iteration, so only one
        # shard of intermediates is ever alive.
        pos_leaf = Tensor(pos_flat[lo:hi], requires_grad=needs_grad)
        neg_leaf = Tensor(neg_flat[lo:hi], requires_grad=needs_grad)
        shard_loss = weighted_bce_loss(
            pos_leaf, neg_leaf, mask_flat[lo:hi], temperature, normalizer=count
        )
        total = total + shard_loss.data
        if needs_grad:
            shard_loss.backward()
            pos_grad[lo:hi] = pos_leaf.grad
            neg_grad[lo:hi] = neg_leaf.grad

    if not needs_grad:
        return Tensor(total)

    pos_shape = pos_scores.data.shape
    neg_shape = neg_scores.data.shape

    def backward(grad: np.ndarray) -> None:
        if pos_scores.requires_grad:
            pos_scores._accumulate(grad * pos_grad.reshape(pos_shape))
        if neg_scores.requires_grad:
            neg_scores._accumulate(grad * neg_grad.reshape(neg_shape))

    return Tensor._make(total, (pos_scores, neg_scores), backward)
