"""Bert4Rec — bidirectional sequential recommendation via masked-POI
prediction (Sun et al., CIKM 2019).

A Cloze-style objective: random positions are replaced by a [MASK]
token, a bidirectional (no causal mask) transformer encodes the
sequence, and the masked POIs are predicted with a full softmax tied to
the input embedding.  Scoring appends [MASK] after the history and
reads the prediction at that position.

Bert4Rec's objective differs from the step-wise BCE of the other
baselines, so this class overrides ``fit`` entirely.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.config import TrainConfig
from ..data.sequences import SequenceExample
from ..data.types import PAD_POI, CheckInDataset
from ..nn import functional as F
from ..nn.attention import MultiHeadAttention
from ..nn.layers import Dropout, Embedding, LayerNorm, PositionwiseFeedForward
from ..nn.module import Module, ModuleList
from ..nn.optim import FlatAdam
from ..nn.tensor import Tensor, no_grad
from .base import SequentialRecommender, register


class _BidirectionalBlock(Module):
    def __init__(self, dim, heads, hidden, dropout, rng):
        super().__init__()
        self.attn_norm = LayerNorm(dim)
        self.attn = MultiHeadAttention(dim, heads, dropout=dropout, rng=rng)
        self.ffn_norm = LayerNorm(dim)
        self.ffn = PositionwiseFeedForward(dim, hidden, dropout=dropout, rng=rng)

    def forward(self, x, mask):
        x = x + self.attn(self.attn_norm(x), mask=mask)
        x = x + self.ffn(self.ffn_norm(x))
        return x


@register("Bert4Rec")
class Bert4Rec(SequentialRecommender, Module):
    def __init__(
        self,
        num_pois: int,
        max_len: int = 100,
        dim: int = 48,
        num_blocks: int = 2,
        num_heads: int = 2,
        ffn_hidden: int = 96,
        dropout: float = 0.2,
        mask_prob: float = 0.2,
        *,
        rng: np.random.Generator,
        **_,
    ):
        Module.__init__(self)
        self.num_pois = num_pois
        self.mask_token = num_pois + 1
        self.dim = dim
        self.max_len = max_len
        self.mask_prob = mask_prob
        self._rng = rng
        # Vocabulary: 0 padding, 1..P POIs, P+1 [MASK].
        self.embedding = Embedding(num_pois + 2, dim, padding_idx=PAD_POI, rng=rng)
        self.position_embedding = Embedding(max_len + 1, dim, rng=rng)
        self.drop = Dropout(dropout, rng=rng)
        self.blocks = ModuleList(
            [
                _BidirectionalBlock(dim, num_heads, ffn_hidden, dropout, rng)
                for _ in range(num_blocks)
            ]
        )
        self.final_norm = LayerNorm(dim)
        self.output_bias = None  # tied softmax uses embedding weights

    # ------------------------------------------------------------------
    def _encode_tokens(self, tokens: np.ndarray) -> Tensor:
        tokens = np.asarray(tokens, dtype=np.int64)
        b, n = tokens.shape
        pad = tokens == PAD_POI
        pos_ids = np.broadcast_to(np.arange(n) % (self.max_len + 1), (b, n))
        e = self.embedding(tokens) + self.position_embedding(pos_ids).masked_fill(
            pad[..., None], 0.0
        )
        e = self.drop(e)
        # Bidirectional: only padding keys are blocked.
        mask = np.broadcast_to(pad[:, None, None, :], (b, 1, n, n)).copy()
        diag = np.eye(n, dtype=bool)[None, None, :, :]
        mask = np.where(pad[:, None, None, :].swapaxes(-1, -2), ~diag, mask)
        for block in self.blocks:
            e = block(e, mask)
        return self.final_norm(e)

    def _logits(self, hidden: Tensor) -> Tensor:
        """Tied-weight softmax logits over real POIs (1..P)."""
        weight = self.embedding.weight[1:self.num_pois + 1]     # (P, d)
        flat = hidden.reshape(-1, self.dim)
        return flat @ weight.transpose()                        # (m, P)

    # ------------------------------------------------------------------
    def fit(
        self,
        dataset: CheckInDataset,
        examples: List[SequenceExample],
        config: Optional[TrainConfig] = None,
    ) -> None:
        config = config or TrainConfig()
        rng = np.random.default_rng(config.seed)
        optimizer = FlatAdam(self.parameters(), lr=config.learning_rate)
        # Full sequences (source + final target) for the Cloze task.
        sequences = []
        for e in examples:
            seq = np.concatenate([e.src_pois[e.src_pois != PAD_POI], [e.tgt_pois[-1]]])
            sequences.append(seq[-self.max_len:])
        self.train()
        for _ in range(config.epochs):
            order = rng.permutation(len(sequences))
            for start in range(0, len(order), config.batch_size):
                batch_seqs = [sequences[i] for i in order[start:start + config.batch_size]]
                n = max(len(s) for s in batch_seqs)
                tokens = np.zeros((len(batch_seqs), n), dtype=np.int64)
                for i, s in enumerate(batch_seqs):
                    tokens[i, n - len(s):] = s
                labels = np.full_like(tokens, -1)
                maskable = tokens != PAD_POI
                to_mask = (rng.random(tokens.shape) < self.mask_prob) & maskable
                # Guarantee at least one masked position per row.
                for i in range(len(tokens)):
                    if not to_mask[i].any():
                        real = np.nonzero(maskable[i])[0]
                        to_mask[i, rng.choice(real)] = True
                labels[to_mask] = tokens[to_mask] - 1          # 0-based classes
                tokens = tokens.copy()
                tokens[to_mask] = self.mask_token
                hidden = self._encode_tokens(tokens)
                logits = self._logits(hidden)
                loss = F.cross_entropy(logits, labels.reshape(-1), ignore_index=-1)
                optimizer.zero_grad()
                loss.backward()
                if config.grad_clip:
                    optimizer.clip_grad_norm(config.grad_clip)
                optimizer.step()
        self.eval()

    def score_candidates(self, src, times, candidates, users=None) -> np.ndarray:
        src = np.asarray(src, dtype=np.int64)
        candidates = np.asarray(candidates, dtype=np.int64)
        b, n = src.shape
        with no_grad():
            # Shift left and append [MASK] at the prediction slot.
            tokens = np.concatenate(
                [src[:, 1:], np.full((b, 1), self.mask_token, dtype=np.int64)], axis=1
            )
            hidden = self._encode_tokens(tokens)
            last = hidden[:, -1, :]                             # (b, d)
            cand_emb = self.embedding(candidates)               # (b, c, d)
            scores = (cand_emb * last.reshape(b, 1, self.dim)).sum(axis=-1)
        return scores.data
