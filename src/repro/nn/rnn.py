"""Recurrent cells and layers for the RNN baselines.

``GRUCell``/``GRU`` back GRU4Rec; ``LSTMCell`` backs STGN, whose
spatial-temporal gated variant (``STGNCell``) adds the paper-described
time and distance gates that modulate the cell state with interval
information (Zhao et al., AAAI 2019).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from . import init
from .layers import Linear
from .module import Module, Parameter
from .tensor import Tensor, concatenate, stack


class GRUCell(Module):
    """Gated recurrent unit cell (Cho et al., 2014)."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        # Fused gates: reset, update, candidate.
        self.w_ih = Parameter(init.xavier_uniform((input_dim, 3 * hidden_dim), rng))
        self.w_hh = Parameter(init.xavier_uniform((hidden_dim, 3 * hidden_dim), rng))
        self.b = Parameter(init.zeros((3 * hidden_dim,)))

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        gates_x = x @ self.w_ih + self.b
        gates_h = h @ self.w_hh
        hd = self.hidden_dim
        r = (gates_x[..., :hd] + gates_h[..., :hd]).sigmoid()
        z = (gates_x[..., hd:2 * hd] + gates_h[..., hd:2 * hd]).sigmoid()
        n = (gates_x[..., 2 * hd:] + r * gates_h[..., 2 * hd:]).tanh()
        return (1.0 - z) * n + z * h


class GRU(Module):
    """Single-layer GRU unrolled over the time dimension.

    Input: (batch, seq, input_dim) -> output (batch, seq, hidden_dim).
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        super().__init__()
        self.cell = GRUCell(input_dim, hidden_dim, rng=rng)
        self.hidden_dim = hidden_dim

    def forward(self, x: Tensor, h0: Optional[Tensor] = None) -> Tensor:
        batch, seq, _ = x.shape
        h = h0 if h0 is not None else Tensor(np.zeros((batch, self.hidden_dim), dtype=np.float32))
        outputs: List[Tensor] = []
        for t in range(seq):
            h = self.cell(x[:, t, :], h)
            outputs.append(h)
        return stack(outputs, axis=1)


class LSTMCell(Module):
    """Standard LSTM cell."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        # Fused gates: input, forget, cell, output.
        self.w_ih = Parameter(init.xavier_uniform((input_dim, 4 * hidden_dim), rng))
        self.w_hh = Parameter(init.xavier_uniform((hidden_dim, 4 * hidden_dim), rng))
        self.b = Parameter(init.zeros((4 * hidden_dim,)))

    def forward(self, x: Tensor, state: Tuple[Tensor, Tensor]) -> Tuple[Tensor, Tensor]:
        h, c = state
        gates = x @ self.w_ih + h @ self.w_hh + self.b
        hd = self.hidden_dim
        i = gates[..., :hd].sigmoid()
        f = gates[..., hd:2 * hd].sigmoid()
        g = gates[..., 2 * hd:3 * hd].tanh()
        o = gates[..., 3 * hd:].sigmoid()
        c_new = f * c + i * g
        h_new = o * c_new.tanh()
        return h_new, c_new


class STGNCell(Module):
    """Spatial-Temporal Gated Network cell (STGN baseline).

    Extends the LSTM cell with two pairs of interval gates: time gates
    ``T1, T2`` driven by the inter-check-in time gap and distance gates
    ``D1, D2`` driven by the geographical gap.  The first pair modulates
    the candidate update, the second pair feeds a secondary cell state
    used for the output, following Zhao et al. (2019).
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        super().__init__()
        self.base = LSTMCell(input_dim, hidden_dim, rng=rng)
        self.hidden_dim = hidden_dim
        # Interval gates: each sees the input vector plus a scalar interval.
        self.t1 = Linear(input_dim + 1, hidden_dim, rng=rng)
        self.t2 = Linear(input_dim + 1, hidden_dim, rng=rng)
        self.d1 = Linear(input_dim + 1, hidden_dim, rng=rng)
        self.d2 = Linear(input_dim + 1, hidden_dim, rng=rng)

    def forward(
        self,
        x: Tensor,
        state: Tuple[Tensor, Tensor, Tensor],
        dt: Tensor,
        dd: Tensor,
    ) -> Tuple[Tensor, Tensor, Tensor]:
        """``dt``/``dd`` are (batch, 1) normalized time/distance intervals."""
        h, c, c_hat = state
        xt = concatenate([x, dt], axis=-1)
        xd = concatenate([x, dd], axis=-1)
        t1, t2 = self.t1(xt).sigmoid(), self.t2(xt).sigmoid()
        d1, d2 = self.d1(xd).sigmoid(), self.d2(xd).sigmoid()

        gates = x @ self.base.w_ih + h @ self.base.w_hh + self.base.b
        hd = self.hidden_dim
        i = gates[..., :hd].sigmoid()
        f = gates[..., hd:2 * hd].sigmoid()
        g = gates[..., 2 * hd:3 * hd].tanh()
        o = gates[..., 3 * hd:].sigmoid()

        c_new = f * c + i * t1 * d1 * g
        c_hat_new = f * c_hat + i * t2 * d2 * g
        h_new = o * c_hat_new.tanh()
        return h_new, c_new, c_hat_new
