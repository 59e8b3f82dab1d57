"""Standard neural network layers built on the autograd Tensor.

Linear, Embedding, LayerNorm, Dropout, ReLU and PositionwiseFeedForward
cover everything the attention models need; recurrent and convolutional
layers used by the RNN/CNN baselines live in :mod:`repro.nn.rnn` and
:mod:`repro.nn.conv`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import functional as F
from . import fused, init
from .module import Module, Parameter
from .tensor import Tensor


class Linear(Module):
    """Affine map ``y = x W + b`` applied over the last dimension."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        *,
        rng: np.random.Generator,
    ):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors.

    ``padding_idx`` rows are zero on output and frozen to zero gradient,
    matching the paper's zero-vector padding check-ins.
    """

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        padding_idx: Optional[int] = None,
        *,
        rng: np.random.Generator,
        std: float = 0.02,
    ):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.padding_idx = padding_idx
        weight = init.normal((num_embeddings, embedding_dim), rng, std=std)
        if padding_idx is not None:
            weight[padding_idx] = 0.0
        self.weight = Parameter(weight, row_table=True)

    def forward(self, indices) -> Tensor:
        idx = indices.data if isinstance(indices, Tensor) else np.asarray(indices)  # repro-lint: disable=REPRO-F64 -- integer ids, cast to int64 below
        idx = idx.astype(np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding index out of range [0, {self.num_embeddings}): "
                f"min={idx.min()}, max={idx.max()}"
            )
        return F.embedding_lookup(self.weight, idx, padding_idx=self.padding_idx)


class LayerNorm(Module):
    """Layer normalization over the last dimension — Eq. (9), one fused op."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.alpha = Parameter(init.ones((dim,)))
        self.beta = Parameter(init.zeros((dim,)))

    def forward(self, x: Tensor) -> Tensor:
        return fused.layer_norm(x, self.alpha, self.beta, eps=self.eps)


class Dropout(Module):
    """Inverted dropout; inert in eval mode."""

    def __init__(self, rate: float, rng: np.random.Generator):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = rng

    def forward(self, x: Tensor, layout=None) -> Tensor:
        """``layout``: ``x`` holds some entries of a larger tensor (see
        :func:`repro.nn.functional.dropout`)."""
        return F.dropout(x, self.rate, rng=self.rng, training=self.training, layout=layout)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class PositionwiseFeedForward(Module):
    """The paper's 2-layer point-wise FFN — Eq. (7).

    ``F = max(0, A W1 + b1) W2 + b2`` with hidden width ``d_h > d``.
    """

    def __init__(
        self,
        dim: int,
        hidden_dim: int,
        dropout: float = 0.0,
        *,
        rng: np.random.Generator,
    ):
        super().__init__()
        if hidden_dim <= dim:
            # Paper requires d_h > d; we allow equality for tiny test configs
            # but never shrink.
            hidden_dim = max(hidden_dim, dim)
        self.w1 = Linear(dim, hidden_dim, rng=rng)
        self.w2 = Linear(hidden_dim, dim, rng=rng)
        self.drop = Dropout(dropout, rng=rng)

    def forward(self, x: Tensor, layout=None) -> Tensor:
        return self.w2(self.drop(self.w1(x).relu(), layout))
