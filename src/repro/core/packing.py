"""Rows of a head-padded batch, each from its own live cut, as one stack.

A ``(b, n)`` batch whose row ``i`` keeps only its columns ``cuts[i]:``
is packed group-major: the rows are ordered by cut (stably), and each
group's ``rows × (n − cut)`` tokens follow one another in a single
``(T, ...)`` stack.  Row-local work (embedding, position codes,
LayerNorm, every ``Linear``, the FFN, residual adds, dropout) runs once
on that stack; :meth:`Packing.split` hands each cut group its tokens as
a ``(g, n − cut, ...)`` view for the work that mixes columns (attention
and TAAD), and :meth:`Packing.join` stacks the results again.

Attention inputs (the relation bias, the attend mask, TAAD's key
padding) are built per group from :meth:`Packing.per_group`, so no work
is spent on a column its row dropped.

When every row shares one cut the stack is simply the ``(b, n − cut,
...)`` slice of the batch: no gather runs, and the forward is the
untrimmed one on those columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..nn.functional import scatter_rows
from ..nn.tensor import Tensor, join, split


@dataclass(frozen=True)
class CutGroup:
    """The rows that share one cut."""

    cut: int
    #: Columns each row keeps (``n - cut``).
    width: int
    #: The group's rows among the rows in cut order.
    rows: slice
    count: int


class Packing:
    """The packed layout of a ``(b, n)`` batch with per-row ``cuts``."""

    def __init__(self, cuts: Sequence[int], n: int):
        cuts = np.asarray(cuts, dtype=np.int64)
        b = len(cuts)
        self.batch_shape = (b, n)
        order = np.argsort(cuts, kind="stable")
        distinct, starts, counts = np.unique(cuts[order], return_index=True, return_counts=True)
        self.base = int(distinct[0]) if b else 0
        self.single = len(distinct) <= 1
        if self.single:
            self.order = None
            self.groups = [CutGroup(self.base, n - self.base, slice(None), b)]
        else:
            self.order = order
            self.groups = [
                CutGroup(int(c), n - int(c), slice(int(s), int(s + k)), int(k))
                for c, s, k in zip(distinct, starts, counts)
            ]
        #: Each token's position in the flattened (b * n) batch, shaped
        #: like the packed tokens' leading axes, or None when the layout
        #: is the batch itself.
        self.index = None
        if self.single and self.base:
            self.index = np.arange(b)[:, None] * n + np.arange(self.base, n)
        elif not self.single:
            self.index = np.concatenate([
                (order[g.rows, None] * n + np.arange(g.cut, n)).ravel() for g in self.groups
            ])

    def full_shape(self, shape: Sequence[int]) -> tuple:
        """The batch shape of the tensor whose packing has ``shape``."""
        if self.index is None:
            return tuple(shape)
        return self.batch_shape + tuple(shape[self.index.ndim:])

    def pack(self, arr: np.ndarray) -> np.ndarray:
        """(b, n, ...) batch array -> its tokens in the packed layout."""
        if self.index is None:
            return arr
        if self.single:
            return arr[:, self.base:]
        return arr.reshape(-1, *arr.shape[2:])[self.index]

    def unpack(self, t: Tensor) -> Tensor:
        """Packed tokens -> (b, n, ...), zero at every dropped column;
        one differentiable scatter."""
        if self.index is None:
            return t
        return scatter_rows(t, self.index, self.batch_shape)

    def sort_rows(self, arr: np.ndarray) -> np.ndarray:
        """(b, ...) rows in batch order -> rows in cut order."""
        return arr if self.order is None else arr[self.order]

    def unsort_rows(self, arr: np.ndarray) -> np.ndarray:
        """The inverse of :meth:`sort_rows`."""
        if self.order is None:
            return arr
        out = np.empty_like(arr)
        out[self.order] = arr
        return out

    def per_group(self, arr: np.ndarray) -> List[np.ndarray]:
        """(b, n, ...) -> each cut group's rows and kept columns as a
        (count, width, ...) array (a view when there is one group)."""
        if self.order is None:
            return [arr[:, self.base:]]
        return [arr[self.order[g.rows], g.cut:] for g in self.groups]

    def split(self, t: Tensor) -> List[Tensor]:
        """Packed tokens -> one (count, width, ...) view per cut group."""
        if self.single:
            return [t]
        return split(t, [(g.count, g.width, *t.shape[1:]) for g in self.groups])

    def join(self, pieces: Sequence[Tensor]) -> Tensor:
        """The inverse of :meth:`split`."""
        if self.single:
            return pieces[0]
        return join(pieces, pieces[0].shape[2:])


#: The layout of a batch run whole: every method leaves its input as is.
WHOLE = Packing((), 0)
