"""How sharply TAAD attends: its attention entropy against uniform.

TAAD (Sec. III-F, Eq. 10) lets each candidate ``C`` query the encoder
outputs ``F`` with ``Softmax(C F^T / sqrt(d))``.  If those logits are
flat, the decoder returns about the mean of ``F`` and loses recency,
which Eq. 17's "remove TAAD" ablation keeps.  This probe measures it on
evaluation slates: the attention entropy as a fraction of the uniform
entropy over the visible (non-padding) positions, and the weight on the
last position against ``1 / #visible``.  It recomputes the attention
from :meth:`STiSAN.encode` and :meth:`STiSAN.embed`, so the model's own
code paths and outputs are untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..data.negatives import EvalCandidateRetriever
from ..data.sequences import EvalExample
from ..data.types import PAD_POI, CheckInDataset
from ..nn.tensor import no_grad

__all__ = ["TaadEntropyReport", "attention_entropy", "taad_attention_entropy"]


@dataclass
class TaadEntropyReport:
    """Means over every (instance, candidate) pair with 2+ visible
    positions."""

    #: Attention entropy / log(#visible); 1.0 is an average pool.
    entropy_frac: float
    #: Weight on the last (most recent) position.
    last_weight: float
    #: 1 / #visible: what ``last_weight`` reads under uniform attention.
    uniform_weight: float
    pairs: int


def attention_entropy(
    candidates: np.ndarray, encoded: np.ndarray, visible: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """TAAD's attention over ``visible`` positions, in float64.

    ``candidates`` (b, c, d), ``encoded`` (b, n, d), ``visible`` (b, n)
    bool.  Returns the entropy as a fraction of ``log(#visible)`` and the
    last position's weight, both (b, c).  The entropy is
    ``logsumexp(z) - sum(w z)``, so equal logits read exactly 1.0.
    """
    candidates = np.asarray(candidates, dtype=np.float64)
    encoded = np.asarray(encoded, dtype=np.float64)
    logits = candidates @ np.swapaxes(encoded, -1, -2) / np.sqrt(candidates.shape[-1])
    shown = np.broadcast_to(visible[:, None, :], logits.shape)
    logits = np.where(shown, logits, 0.0)
    top = np.where(shown, logits, -np.inf).max(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        exp = np.where(shown, np.exp(logits - top), 0.0)
        total = exp.sum(axis=-1, keepdims=True)
        weights = exp / total
        lse = (top + np.log(total))[..., 0]
        frac = (lse - (weights * logits).sum(axis=-1)) / np.log(visible.sum(axis=-1))[:, None]
    return frac, weights[..., -1]


def taad_attention_entropy(
    model,
    dataset: CheckInDataset,
    examples: List[EvalExample],
    num_candidates: int = 100,
    batch_size: int = 64,
    retriever: Optional[EvalCandidateRetriever] = None,
) -> TaadEntropyReport:
    """:func:`attention_entropy` on each instance's evaluation slate
    (the target plus its ``num_candidates`` nearest unvisited POIs)."""
    if not examples:
        raise ValueError("no evaluation examples")
    retriever = retriever or EvalCandidateRetriever(dataset, num_candidates=num_candidates)
    was_training = model.training
    model.eval()
    fracs, lasts, uniforms = [], [], []
    try:
        with no_grad():
            for start in range(0, len(examples), batch_size):
                chunk = examples[start:start + batch_size]
                src = np.stack([e.src_pois for e in chunk])
                times = np.stack([e.src_times for e in chunk])
                slates = retriever.candidates([e.user for e in chunk], [e.target for e in chunk])
                encoded = model.encode(src, times).data
                visible = src != PAD_POI
                frac, last = attention_entropy(model.embed(slates).data, encoded, visible)
                keep = visible.sum(axis=-1) >= 2
                fracs.append(frac[keep].ravel())
                lasts.append(last[keep].ravel())
                count = visible[keep].sum(axis=-1, keepdims=True)
                uniforms.append(np.broadcast_to(1.0 / count, last[keep].shape).ravel())
    finally:
        model.train(was_training)
    frac = np.concatenate(fracs)
    if not frac.size:
        raise ValueError("no instance has two or more visible positions")
    return TaadEntropyReport(
        entropy_frac=float(frac.mean()),
        last_weight=float(np.concatenate(lasts).mean()),
        uniform_weight=float(np.concatenate(uniforms).mean()),
        pairs=int(frac.size),
    )
