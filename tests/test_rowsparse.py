"""Row-sparse embedding gradients equal the dense ones bit for bit.

The clip norm of a row-sparse gradient replays numpy's float32 pairwise
summation over the flat table (``repro.nn.rowsparse.sum_of_squares``).
These tests compare it with ``float((dense ** 2).sum())`` over many
lengths and sparsity patterns: if a numpy release changes how it
reduces a float32 array, they fail here rather than letting training
drift from the dense path.
"""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.rowsparse import RowSparseGrad, dense_grad, sum_of_squares
from repro.nn.tensor import Tensor

REDUCTION_CHANGED = (
    "the row-sparse sum of squares no longer matches numpy's float32 "
    "reduction; numpy's pairwise summation may have changed"
)


def _bits(x) -> int:
    return int(np.float32(x).view(np.uint32))


def _check_flat(dense: np.ndarray) -> None:
    positions = np.flatnonzero(dense)
    got = sum_of_squares(positions, dense[positions], dense.size)
    want = (dense ** 2).sum()
    assert _bits(got) == _bits(want), f"{REDUCTION_CHANGED} (length {dense.size}, " \
        f"{positions.size} live: {got!r} != {want!r})"


def _check_table(grad: RowSparseGrad) -> None:
    """The tree over the table's flat entries and the gradient's own
    norm (which sums a small or mostly live table densely) both equal
    the dense table's."""
    want = (grad.dense() ** 2).sum()
    width = grad.values.shape[1]
    positions = (grad.rows[:, None] * width + np.arange(width)).reshape(-1)
    tree = sum_of_squares(positions, grad.values.reshape(-1), grad.num_rows * width)
    assert _bits(tree) == _bits(want), f"{REDUCTION_CHANGED} ({grad.rows.size} " \
        f"of {grad.num_rows} rows live: {tree!r} != {want!r})"
    assert _bits(grad.sum_of_squares()) == _bits(want), REDUCTION_CHANGED


def _patterns(length: int, rng: np.random.Generator):
    """All-zero, one live entry first and last, every entry live, and
    random densities."""
    yield np.zeros(length, dtype=bool)
    for at in (0, length - 1):
        one = np.zeros(length, dtype=bool)
        one[at] = True
        yield one
    yield np.ones(length, dtype=bool)
    for density in (1e-4, 0.01, 0.3, 0.9):
        yield rng.random(length) < density


def _fill(live: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    dense = np.zeros(live.size, dtype=np.float32)
    scale = np.float32(10.0 ** rng.uniform(-3, 3))
    dense[live] = rng.standard_normal(int(live.sum())).astype(np.float32) * scale
    return dense


def test_every_length_up_to_300():
    rng = np.random.default_rng(0)
    for length in range(1, 301):
        for live in _patterns(length, rng):
            _check_flat(_fill(live, rng))


@pytest.mark.parametrize(
    "length", [1_000, 8_191, 8_192, 8_193, 65_537, 400_001, 1_000_003, 4_000_008]
)
def test_long_lengths(length):
    rng = np.random.default_rng(length)
    for live in _patterns(length, rng):
        _check_flat(_fill(live, rng))


@pytest.mark.parametrize("shape", [(500_001, 8), (1_272, 8)], ids=["poi-table", "gram-table"])
def test_table_shapes(shape):
    """The catalogue_500k POI table and the quadkey gram table, with the
    live-row counts a training step produces, plus the edge rows."""
    rng = np.random.default_rng(shape[0])
    num_rows = shape[0]
    for count in (1, 40, 1_148, 3_000):
        rows = np.unique(rng.integers(0, num_rows, size=min(count, num_rows)))
        for extra in ([], [0], [num_rows - 1], [0, num_rows - 1]):
            picked = np.union1d(rows, np.asarray(extra, dtype=np.int64))
            values = rng.standard_normal((picked.size, shape[1])).astype(np.float32)
            _check_table(RowSparseGrad(picked, values, num_rows))


def test_every_row_live_on_the_gram_table():
    rng = np.random.default_rng(5)
    values = rng.standard_normal((1_272, 8)).astype(np.float32)
    _check_table(RowSparseGrad(np.arange(1_272, dtype=np.int64), values, 1_272))


def test_row_sums_match_add_at():
    """One lookup's row sums equal ``np.add.at`` into a zero table; a
    table no larger than the lookup lists every row."""
    rng = np.random.default_rng(1)
    for _ in range(20):
        num_rows, n, dim = int(rng.integers(1, 500)), int(rng.integers(1, 400)), int(rng.integers(1, 17))
        idx = rng.integers(0, num_rows, size=n)
        grad = rng.standard_normal((n, dim)).astype(np.float32)
        want = np.zeros((num_rows, dim), dtype=np.float32)
        np.add.at(want, idx, grad)
        got = F.row_sums(idx, grad, num_rows)
        want_rows = np.unique(idx) if num_rows > n else np.arange(num_rows)
        assert np.array_equal(got.rows, want_rows)
        np.testing.assert_array_equal(got.dense().view(np.uint32), want.view(np.uint32))


def test_sum_matches_dense_addition_with_signed_zeros():
    """``a + b`` over the union rows, as the dense tables add, including
    ``-0.0`` entries on one side only."""
    rng = np.random.default_rng(2)
    for _ in range(30):
        grads = []
        for _ in range(2):
            rows = np.unique(rng.integers(0, 60, size=int(rng.integers(1, 30))))
            values = rng.standard_normal((rows.size, 3)).astype(np.float32)
            values[rng.random(values.shape) < 0.2] = -0.0
            grads.append(RowSparseGrad(rows, values, 60))
        got = (grads[0] + grads[1]).dense()
        want = grads[0].dense() + grads[1].dense()
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


def test_accumulation_keeps_lookup_order_and_mixed_gradients():
    """Two lookups plus a dense use of the same table: the accumulated
    gradient equals the dense sum in arrival order."""
    rng = np.random.default_rng(3)
    table = Tensor(rng.standard_normal((30, 4)).astype(np.float32), requires_grad=True)
    src, cand = rng.integers(0, 30, size=(3, 5)), rng.integers(0, 30, size=(7,))

    def lookups():
        a = F.embedding_lookup(table, src, padding_idx=0)
        return a.sum() + (F.embedding_lookup(table, cand) * 3.0).sum()

    lookups().backward()
    assert isinstance(table.grad, RowSparseGrad)
    sparse = dense_grad(table.grad).copy()
    table.zero_grad()
    (lookups() + (table * 2.0).sum()).backward()
    assert isinstance(table.grad, np.ndarray)
    np.testing.assert_array_equal(table.grad, sparse + np.float32(2.0))


def test_computed_table_gets_a_dense_gradient():
    """A lookup into a computed table hands the op below it a dense
    gradient, as before."""
    rng = np.random.default_rng(4)
    base = Tensor(rng.standard_normal((6, 3)).astype(np.float32), requires_grad=True)
    table = base * 2.0
    F.embedding_lookup(table, np.array([1, 1, 4])).sum().backward()
    assert isinstance(base.grad, np.ndarray)
    want = np.zeros((6, 3), dtype=np.float32)
    want[1], want[4] = 4.0, 2.0
    np.testing.assert_array_equal(base.grad, want)


def test_empty_lookup_accumulates():
    """A lookup of no indices gives an empty row set that adds, sums
    and densifies like the zero table."""
    table = Tensor(np.ones((5, 3), dtype=np.float32), requires_grad=True)
    empty = F.embedding_lookup(table, np.empty(0, dtype=np.int64)).sum()
    (empty + empty).backward()
    assert table.grad.rows.size == 0
    assert table.grad.sum_of_squares() == 0.0
    np.testing.assert_array_equal(dense_grad(table.grad), np.zeros((5, 3), dtype=np.float32))
