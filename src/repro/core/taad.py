"""Target Aware Attention Decoder (TAAD) — Section III-F, Eq. (10).

TAAD refines the user-preference representation *per candidate*: each
candidate embedding queries the encoder outputs,

    S = Attn(C, F, F) = Softmax(C F^T / sqrt(d)) F,

and the preference score is the inner product <S, C> (Eq. 11).  During
training the candidate at step ``i`` may only attend encoder outputs of
steps ``<= i`` (the usual leakage mask); at recommendation time the
whole sequence is visible.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import fused
from ..nn.module import Module
from ..nn.tensor import Tensor


class TargetAwareAttentionDecoder(Module):
    """Parameter-free cross-attention decoder over encoder outputs."""

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim

    def forward(
        self,
        candidates: Tensor,
        encoder_out: Tensor,
        attend_mask: Optional[np.ndarray] = None,
    ) -> Tensor:
        """
        Parameters
        ----------
        candidates : (b, q, c, d) or (b, c, d) candidate representations
            (q = decoding steps, c = candidates per step).
        encoder_out : (b, n, d) encoder outputs F^(N).
        attend_mask : bool broadcastable to (b, q, c, n); True = block.

        Returns
        -------
        S with the same shape as ``candidates``.
        """
        squeeze_step = candidates.ndim == 3
        if squeeze_step:
            candidates = candidates.reshape(
                candidates.shape[0], 1, candidates.shape[1], candidates.shape[2]
            )
        b, q, c, d = candidates.shape
        n = encoder_out.shape[1]
        flat = candidates.reshape(b, q * c, d)
        # Softmax over the key axis is invariant to the (b, q*c, n) vs
        # (b, q, c, n) grouping, so one flat attention op serves every step.
        flat_mask = None
        if attend_mask is not None:
            flat_mask = np.broadcast_to(attend_mask, (b, q, c, n)).reshape(
                b, q * c, n
            )
        s = fused.fused_causal_attention(
            flat, encoder_out, encoder_out, mask=flat_mask
        ).reshape(b, q, c, d)
        if squeeze_step:
            s = s.reshape(b, c, d)
        return s


def preference_scores(s: Tensor, candidates: Tensor) -> Tensor:
    """Inner-product matching f(S_i, C_j) — Eq. (11).

    Shapes: (..., c, d) x (..., c, d) -> (..., c).
    """
    return (s * candidates).sum(axis=-1)


def step_causal_mask(num_steps: int, seq_len: int) -> np.ndarray:
    """(num_steps, 1, seq_len) mask: the candidate decoded at step i may
    attend only encoder positions <= i."""
    steps = np.arange(num_steps)[:, None]
    positions = np.arange(seq_len)[None, :]
    return (positions > steps)[:, None, :]
