"""Time Aware Position Encoder (TAPE) — Section III-C, Algorithm 1.

TAPE replaces the integer positions of vanilla sinusoidal positional
encoding with *time-stretched* positions:

    pos_{k+1} = pos_k + Δt_{k,k+1} / mean(Δt) + 1        (Eq. 2)

so two check-ins separated by a long gap land far apart in position
space, and the standard sinusoidal transform (Eq. 3) then turns the
positions into d-dimensional codes.  TAPE has **no learnable
parameters** and costs O(n) on top of vanilla PE — the paper's
"lightweight" claim, which :mod:`repro.eval.flops` quantifies.

Both encoders return plain numpy arrays: they are constants with
respect to the loss, added onto the (differentiable) sequence
representation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def sinusoid_table(
    positions: np.ndarray, dim: int, pad_mask: Optional[np.ndarray] = None
) -> np.ndarray:
    """Sinusoidal transform of arbitrary (possibly fractional) positions.

    ``positions``: (..., n) float array -> (..., n, dim) float32 codes,
    PE(pos, 2i) = sin(pos / 10000^{2i/d}), PE(pos, 2i+1) = cos(...).
    Codes at padding positions (``pad_mask`` True) are zero; only the
    other positions are transformed.
    """
    if dim % 2 != 0:
        raise ValueError(f"encoding dim must be even, got {dim}")
    positions = np.asarray(positions, dtype=np.float64)
    shape = positions.shape + (dim,)
    if pad_mask is not None:
        keep = ~np.broadcast_to(np.asarray(pad_mask, dtype=bool), positions.shape)
        positions = positions[keep]
    div_term = np.exp(np.arange(0, dim, 2, dtype=np.float64) * -(np.log(10000.0) / dim))
    angles = positions[..., None] * div_term          # (..., n, dim/2)
    out = np.empty(positions.shape + (dim,), dtype=np.float32)
    out[..., 0::2] = np.sin(angles)
    out[..., 1::2] = np.cos(angles)
    if pad_mask is None:
        return out
    codes = np.zeros(shape, dtype=np.float32)
    codes[keep] = out
    return codes


def time_aware_positions(
    times: np.ndarray, pad_mask: Optional[np.ndarray] = None
) -> np.ndarray:
    """Compute the TAPE positions for (batched) timestamp arrays.

    Parameters
    ----------
    times : (..., n) unix seconds (padding positions should carry the
        first real timestamp so their Δt is zero).
    pad_mask : optional (..., n) bool, True at padding positions.
        Padded steps contribute zero interval and advance the position
        counter by the constant 1 only.

    Returns
    -------
    (..., n) float64 positions starting at 1.0.
    """
    times = np.asarray(times, dtype=np.float64)
    n = times.shape[-1]
    if n == 0:
        return np.zeros_like(times)
    delta = np.diff(times, axis=-1)
    delta = np.concatenate([np.zeros_like(times[..., :1]), delta], axis=-1)
    if pad_mask is not None:
        delta = np.where(pad_mask, 0.0, delta)
        # The first real position also has no predecessor interval.
        first_real = (~pad_mask) & (np.cumsum(~pad_mask, axis=-1) == 1)
        delta = np.where(first_real, 0.0, delta)
    if n > 1:
        if pad_mask is not None:
            counts = np.maximum((delta > 0).sum(axis=-1, keepdims=True), 1)
            mean = delta.sum(axis=-1, keepdims=True) / counts
        else:
            mean = delta.sum(axis=-1, keepdims=True) / (n - 1)
        mean = np.where(mean <= 0, 1.0, mean)
        delta = delta / mean
    # pos_1 = 1; each later step adds normalized interval + 1.
    steps = delta.copy()
    steps[..., 0] = 1.0
    steps[..., 1:] += 1.0
    return np.cumsum(steps, axis=-1)


class TimeAwarePositionEncoder:
    """Callable TAPE module (stateless; ``dim`` fixed at construction)."""

    def __init__(self, dim: int):
        if dim % 2 != 0:
            raise ValueError("TAPE dimension must be even")
        self.dim = dim

    def __call__(
        self, times: np.ndarray, pad_mask: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """(..., n) timestamps -> (..., n, dim) positional codes.

        Padding positions (per ``pad_mask``) are zeroed so they cannot
        leak signal into the zero-vector padding embeddings.
        """
        pos = time_aware_positions(times, pad_mask=pad_mask)
        return sinusoid_table(pos, self.dim, pad_mask)


class VanillaPositionEncoder:
    """The fixed sinusoidal encoding of Vaswani et al. — the "PE"
    baseline that TAPE is compared against (Fig. 4) and the encoder used
    by the *Remove TAPE* ablation variant (Table IV)."""

    def __init__(self, dim: int):
        if dim % 2 != 0:
            raise ValueError("PE dimension must be even")
        self.dim = dim

    def __call__(
        self, times: np.ndarray, pad_mask: Optional[np.ndarray] = None
    ) -> np.ndarray:
        times = np.asarray(times)
        n = times.shape[-1]
        pos = np.broadcast_to(
            np.arange(1, n + 1, dtype=np.float64), times.shape
        )
        return sinusoid_table(pos, self.dim, pad_mask)
