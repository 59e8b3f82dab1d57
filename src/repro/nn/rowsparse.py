"""Row-sparse gradients for embedding tables.

An embedding step reads a few rows of a table that may hold a whole
catalogue: at 500k POIs a training batch touches about a thousand of
500,001 rows.  :func:`repro.nn.functional.embedding_lookup` therefore
hands its table a :class:`RowSparseGrad` — the distinct rows it read
and their summed gradients — and every consumer (accumulation, the
global-norm clip, ``FlatAdam``) works on those rows.  Each one stays
bitwise equal to the dense table it stands for, which is zero outside
``rows``; :meth:`RowSparseGrad.dense` (or :func:`dense_grad`, which
also passes ordinary arrays through) is the one way to get that table.

The clip norm is the delicate part.  ``float((g ** 2).sum())`` over a
dense float32 table is numpy's pairwise summation over the flat array,
and float addition is not associative, so a row-sparse norm must
replay that exact tree.  :func:`sum_of_squares` does, visiting only the
subtrees that hold a live entry (DESIGN.md §9 has the proof).
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = ["RowSparseGrad", "dense_grad", "sum_of_squares"]

#: numpy's pairwise-summation leaf: at most this many elements are
#: summed with 8 running accumulators (``PW_BLOCKSIZE`` in numpy's
#: ``loops_utils.h``).
_LEAF = 128
#: Accumulators per leaf; every split point is a multiple of this.
_LANES = 8
#: A table with at most this many rows per live row is summed densely:
#: building and summing it costs less than walking the tree (DESIGN.md
#: §9 has the timings).
_DENSE_RATIO = 64


class RowSparseGrad:
    """The gradient of a ``(num_rows, ...)`` table that is zero outside
    ``rows``.

    ``rows`` is a sorted array of distinct row ids and ``values`` holds
    their gradient rows, in the same order.  A row may be listed with an
    all-zero value (a padding lookup); that is the same table.
    """

    __slots__ = ("rows", "values", "num_rows")

    def __init__(self, rows: np.ndarray, values: np.ndarray, num_rows: int):
        self.rows = rows
        self.values = values
        self.num_rows = int(num_rows)

    @property
    def shape(self) -> tuple:
        return (self.num_rows,) + self.values.shape[1:]

    def dense(self) -> np.ndarray:
        """The full table: zeros, with ``values`` at ``rows``."""
        out = np.zeros(self.shape, dtype=np.float32)
        out[self.rows] = self.values
        return out

    def __add__(self, other: "RowSparseGrad") -> "RowSparseGrad":
        """``self + other`` exactly as the dense tables add: each union
        row is ``a + b``, with ``+0`` for a side that lacks the row."""
        rows = np.concatenate([self.rows, other.rows])
        rows.sort()
        distinct = np.ones(rows.size, dtype=bool)
        distinct[1:] = rows[1:] != rows[:-1]
        rows = rows[distinct]
        mine = np.zeros((rows.size,) + self.values.shape[1:], dtype=np.float32)
        mine[np.searchsorted(rows, self.rows)] = self.values
        theirs = np.zeros_like(mine)
        theirs[np.searchsorted(rows, other.rows)] = other.values
        return RowSparseGrad(rows, mine + theirs, self.num_rows)

    def __mul__(self, scale: float) -> "RowSparseGrad":
        """Scale by a Python float (the clip factor); ``0 * s = 0`` keeps
        every other row zero."""
        return RowSparseGrad(self.rows, self.values * scale, self.num_rows)

    def sum_of_squares(self) -> np.float32:
        """``(self.dense() ** 2).sum()``, bit for bit, from the live rows."""
        if self.num_rows <= _DENSE_RATIO * self.rows.size:
            return (self.dense() ** 2).sum()
        width = int(np.prod(self.values.shape[1:], dtype=np.int64))
        positions = (self.rows[:, None] * width + np.arange(width, dtype=np.int64)).reshape(-1)
        return sum_of_squares(positions, self.values.reshape(-1), self.num_rows * width)


def dense_grad(grad: Union[np.ndarray, RowSparseGrad]) -> np.ndarray:
    """Any gradient as a dense array (the densifying accessor)."""
    return grad.dense() if isinstance(grad, RowSparseGrad) else grad


def _pairwise_leaf(chunks: np.ndarray) -> np.ndarray:
    """numpy's leaf sum for each ``(16, 8)`` block of ``chunks`` (k, 16, 8):
    eight lanes accumulated chunk by chunk, then combined as a tree.
    Zero padding past a leaf's end adds ``+0``, exact for squares."""
    lanes = chunks[:, 0].copy()
    for j in range(1, chunks.shape[1]):
        lanes += chunks[:, j]
    return ((lanes[:, 0] + lanes[:, 1]) + (lanes[:, 2] + lanes[:, 3])) + (
        (lanes[:, 4] + lanes[:, 5]) + (lanes[:, 6] + lanes[:, 7])
    )


def sum_of_squares(positions: np.ndarray, values: np.ndarray, length: int) -> np.float32:
    """``(a ** 2).sum()`` of a float32 array of ``length`` that is zero
    outside the ascending flat ``positions``, holding ``values`` there.

    numpy sums a contiguous float32 array by recursive halving: a block
    of more than 128 elements splits at half its length rounded down to
    a multiple of 8; a block of 8-128 runs 8 lane accumulators over its
    8-element chunks, combines them pairwise and adds any tail elements
    one by one; fewer than 8 elements are added in order.  Squares are
    never ``-0``, so a block with no live entry sums to exactly ``+0``
    and ``x + 0 = x``: skipping it changes nothing.  The tree is walked
    level by level over the live 8-element chunks only, so the cost
    follows the live entries, not ``length``.
    """
    squares = np.asarray(values, dtype=np.float32) ** 2
    if squares.size == 0:
        return np.float32(0.0)
    if length < _LANES:
        dense = np.zeros(length, dtype=np.float32)
        dense[positions] = squares
        total = np.float32(0.0)
        for x in dense:
            total = total + x
        return np.float32(total)
    # Live 8-element chunks: every block start is a multiple of 8, so a
    # chunk never straddles two leaves.
    chunk_of = positions // _LANES
    first = np.empty(chunk_of.size, dtype=bool)
    first[0] = True
    np.not_equal(chunk_of[1:], chunk_of[:-1], out=first[1:])
    chunk = chunk_of[first]
    # Entry p lands in lane p % 8 of its chunk's row of ``block``.
    slot = np.cumsum(first) - 1
    block = np.zeros((chunk.size, _LANES), dtype=np.float32)
    block.reshape(-1)[positions + _LANES * (slot - chunk_of)] = squares
    tail_len = length % _LANES
    tail = None
    if tail_len and chunk[-1] == length // _LANES:
        # The last, partial chunk: its elements follow the lane sum.
        tail = block[-1, :tail_len].copy()
        block[-1] = 0.0

    # Descend from the root to each chunk's leaf, keeping the start of
    # the block that holds the chunk at every level; a chunk whose leaf
    # was reached earlier keeps that leaf's start.
    start = np.zeros(chunk.size, dtype=np.int64)
    size = np.full(chunk.size, length, dtype=np.int64)
    levels = []
    at = chunk * _LANES
    while True:
        split = size > _LEAF
        if not split.any():
            break
        levels.append(start)
        half = (size // (2 * _LANES)) * _LANES    # size // 2, down to a multiple of 8
        right = split & (at >= start + half)
        start = start + half * right
        size = np.where(split, np.where(right, size - half, half), size)

    # Leaf sums: scatter each live leaf's chunks into a (leaves, 16, 8)
    # block and run numpy's lane loop on all of them at once.
    new_leaf = np.concatenate([[True], start[1:] != start[:-1]])
    leaf_id = np.cumsum(new_leaf) - 1
    leaves = np.zeros((int(leaf_id[-1]) + 1, _LEAF // _LANES, _LANES), dtype=np.float32)
    leaves[leaf_id, chunk - start // _LANES] = block
    node_value = _pairwise_leaf(leaves)
    if tail is not None:
        for x in tail:
            node_value[-1] = node_value[-1] + x

    # Combine upwards, one level at a time: live blocks are in order, so
    # two neighbours with the same parent are its left and right child
    # and the parent sums left + right; a block with one live child (or
    # a leaf passed through) takes that child's sum unchanged.
    first = np.flatnonzero(new_leaf)   # each live block's first chunk
    for parent in reversed(levels):
        parent_of = parent[first]
        left = np.flatnonzero(parent_of[1:] == parent_of[:-1])
        if left.size:
            node_value[left] = node_value[left] + node_value[left + 1]
            keep = np.ones(first.size, dtype=bool)
            keep[left + 1] = False
            node_value, first = node_value[keep], first[keep]
    return np.float32(node_value[0])
