"""Convolution layers for the Caser baseline.

Caser treats the embedded sequence (n, d) as an image and applies
horizontal filters (height h spanning consecutive check-ins, width d)
followed by max-over-time pooling, plus vertical filters (height n,
width 1) that learn weighted sums over positions.  Both reduce to
matrix multiplications after an im2col-style unfold, which is what we
implement here.
"""

from __future__ import annotations

from typing import List

import numpy as np

from . import init
from .module import Module, Parameter
from .tensor import Tensor, concatenate


def unfold_sequence(x: Tensor, height: int) -> Tensor:
    """Slide a window of ``height`` rows over (batch, n, d).

    Returns (batch, n - height + 1, height * d): each output row is the
    flattened window, ready for a matmul with flattened filters.
    """
    batch, n, d = x.shape
    if height > n:
        raise ValueError(f"filter height {height} exceeds sequence length {n}")
    windows = [x[:, i:i + height, :].reshape(batch, 1, height * d) for i in range(n - height + 1)]
    return concatenate(windows, axis=1)


class HorizontalConv(Module):
    """Horizontal convolution + max-over-time pooling.

    One filter bank per height in ``heights``; output is the
    concatenation of the pooled activations:
    (batch, num_filters * len(heights)).
    """

    def __init__(
        self,
        embed_dim: int,
        heights: List[int],
        num_filters: int,
        rng: np.random.Generator,
    ):
        super().__init__()
        self.heights = list(heights)
        self.num_filters = num_filters
        self.filters = []
        self.biases = []
        for idx, h in enumerate(self.heights):
            w = Parameter(init.xavier_uniform((h * embed_dim, num_filters), rng))
            b = Parameter(init.zeros((num_filters,)))
            setattr(self, f"w{idx}", w)
            setattr(self, f"b{idx}", b)
            self.filters.append(w)
            self.biases.append(b)

    @property
    def out_dim(self) -> int:
        return self.num_filters * len(self.heights)

    def forward(self, x: Tensor) -> Tensor:
        pooled = []
        for h, w, b in zip(self.heights, self.filters, self.biases):
            unfolded = unfold_sequence(x, h)          # (batch, n-h+1, h*d)
            conv = (unfolded @ w + b).relu()          # (batch, n-h+1, filters)
            pooled.append(conv.max(axis=1))           # (batch, filters)
        return concatenate(pooled, axis=-1)


class VerticalConv(Module):
    """Vertical convolution: learned weighted sums over positions.

    Produces (batch, num_filters * d) — each filter is a length-n weight
    vector applied across the sequence for every embedding dimension.
    """

    def __init__(self, seq_len: int, num_filters: int, rng: np.random.Generator):
        super().__init__()
        self.seq_len = seq_len
        self.num_filters = num_filters
        self.weight = Parameter(init.xavier_uniform((num_filters, seq_len), rng))

    def forward(self, x: Tensor) -> Tensor:
        batch, n, d = x.shape
        if n != self.seq_len:
            raise ValueError(f"expected sequence length {self.seq_len}, got {n}")
        # (filters, n) @ (batch, n, d) -> (batch, filters, d)
        out = self.weight @ x
        return out.reshape(batch, self.num_filters * d)
