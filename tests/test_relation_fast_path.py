"""The relation build, its softmax scaling and the position codes against
their straightforward formulations, bit for bit.

``build_relation_matrix`` computes distances on a table of the distinct
coordinates when that is smaller than the (..., n, n) grid, and works
in place; ``build_relation_matrix_cached`` computes all missed rows in
one call; the position encoders transform only the real positions.
The oracles below are the plain versions they replace.
"""

import numpy as np
import pytest

import repro.core.relation as relation_module
from repro.core.cache import LRUCache
from repro.core.relation import (
    RelationConfig,
    build_relation_matrix,
    build_relation_matrix_cached,
    causal_attend_mask,
    relation_row_key,
    scaled_relation_bias,
)
from repro.core.tape import (
    TimeAwarePositionEncoder,
    VanillaPositionEncoder,
    sinusoid_table,
    time_aware_positions,
)
from repro.data.types import SECONDS_PER_DAY
from repro.geo.haversine import haversine
from repro.obs import REGISTRY, observability


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
def oracle_relation(times, coords, config=RelationConfig(), pad_mask=None):
    times = np.asarray(times, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.float64)
    n = times.shape[-1]
    dt_days = np.abs(times[..., :, None] - times[..., None, :]) / SECONDS_PER_DAY
    dt_days = np.minimum(dt_days, config.k_t_days)
    dd_km = haversine(
        coords[..., :, None, 0], coords[..., :, None, 1],
        coords[..., None, :, 0], coords[..., None, :, 1],
    )
    dd_km = np.minimum(dd_km, config.k_d_km)
    r_hat = dt_days + dd_km
    valid = np.tril(np.ones((n, n), dtype=bool))
    valid = np.broadcast_to(valid, r_hat.shape).copy()
    if pad_mask is not None:
        pad_mask = np.asarray(pad_mask, dtype=bool)
        valid &= ~pad_mask[..., :, None]
        valid &= ~pad_mask[..., None, :]
    r_hat_masked = np.where(valid, r_hat, -np.inf)
    r_max = r_hat_masked.max(axis=(-1, -2), keepdims=True)
    r_max = np.where(np.isfinite(r_max), r_max, 0.0)
    relation = np.where(valid, r_max - r_hat, 0.0)
    return relation.astype(np.float32)


def oracle_bias(relation, attend_mask):
    relation = np.asarray(relation, dtype=np.float64)
    blocked = np.asarray(attend_mask, dtype=bool)
    scores = np.where(blocked, -np.inf, relation)
    row_max = scores.max(axis=-1, keepdims=True)
    row_max = np.where(np.isfinite(row_max), row_max, 0.0)
    ex = np.exp(scores - row_max)
    ex = np.where(blocked, 0.0, ex)
    denom = ex.sum(axis=-1, keepdims=True)
    bias = np.where(denom > 0, ex / np.maximum(denom, 1e-12), 0.0)
    return bias.astype(np.float32)


def oracle_attend_mask(pad):
    n = pad.shape[1]
    future = np.triu(np.ones((n, n), dtype=bool), k=1)
    mask = future[None, :, :] | pad[:, None, :]
    diag = np.eye(n, dtype=bool)
    return np.where(pad[:, :, None], ~diag[None, :, :], mask)


def oracle_tape(times, dim, pad_mask=None):
    codes = sinusoid_table(time_aware_positions(times, pad_mask=pad_mask), dim)
    if pad_mask is not None:
        codes = np.where(pad_mask[..., None], 0.0, codes).astype(np.float32)
    return codes


def oracle_vanilla(times, dim, pad_mask=None):
    times = np.asarray(times)
    pos = np.broadcast_to(np.arange(1, times.shape[-1] + 1, dtype=np.float64), times.shape)
    codes = sinusoid_table(pos, dim)
    if pad_mask is not None:
        codes = np.where(pad_mask[..., None], 0.0, codes).astype(np.float32)
    return codes


def oracle_cached(times, coords, config, pad_mask, cache, owners=None):
    """One build call per missed row, in row order."""
    times = np.asarray(times, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.float64)
    if owners is not None and len(owners) != times.shape[0]:
        owners = None
    rows, computed = [], 0
    for i in range(times.shape[0]):
        pad_row = None if pad_mask is None else np.asarray(pad_mask, dtype=bool)[i]
        key = relation_row_key(times[i], coords[i], config, pad_row)
        matrix = cache.get(key)
        if matrix is None:
            matrix = oracle_relation(
                times[i : i + 1], coords[i : i + 1], config,
                None if pad_row is None else pad_row[None, :],
            )[0]
            cache.put(key, matrix, owner=None if owners is None else owners[i])
            computed += 1
        rows.append(matrix)
    return np.stack(rows), computed


def same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
CONFIGS = [
    RelationConfig(),
    RelationConfig(0.0, 0.0),
    RelationConfig(0.0, 15.0),
    RelationConfig(10.0, 0.0),
    RelationConfig(3.0, 2.0),
]


def make_batch(b, n, distinct, seed, head_pad=True, all_pad_row=False):
    """(b, n) times, coords drawn from ``distinct`` catalogue points (two
    of them coincident), and a head-padding mask."""
    rng = np.random.default_rng(seed)
    catalogue = np.stack(
        [rng.uniform(40.0, 40.5, distinct), rng.uniform(-74.0, -73.5, distinct)], axis=-1
    )
    if distinct > 1:
        catalogue[-1] = catalogue[0]  # two POIs at one place
    coords = catalogue[rng.integers(0, distinct, size=(b, n))]
    times = np.sort(rng.uniform(0.0, 40 * SECONDS_PER_DAY, size=(b, n)), axis=-1)
    times[:, 1] = times[:, 0]  # a zero time gap
    pad = np.zeros((b, n), dtype=bool)
    if head_pad:
        for i, k in enumerate(rng.integers(0, n, size=b)):
            pad[i, :k] = True
    if all_pad_row:
        pad[0] = True
    return times, coords, pad


def table_calls(monkeypatch):
    calls = []
    original = relation_module.pairwise_haversine

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(relation_module, "pairwise_haversine", counted)
    return calls


# ----------------------------------------------------------------------
# build_relation_matrix
# ----------------------------------------------------------------------
class TestRelationMatrix:
    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("b, n, distinct, table", [
        (8, 20, 5, True),       # U*U = 25 << 8*400 pairs
        (64, 30, 40, True),
        (4, 16, 4096, False),   # every coordinate distinct: U*U > pairs
        (1, 32, 4096, False),
        (1, 32, 6, True),       # one sequence revisiting six places
    ])
    def test_batched_matches_oracle(self, monkeypatch, config, b, n, distinct, table):
        times, coords, pad = make_batch(b, n, distinct, seed=b * n, all_pad_row=b > 1)
        calls = table_calls(monkeypatch)
        for mask in (pad, None):
            same_bits(
                build_relation_matrix(times, coords, config, mask),
                oracle_relation(times, coords, config, mask),
            )
        assert bool(calls) == table

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("distinct, table", [(3, True), (4096, False)])
    def test_single_sequence_matches_oracle(self, monkeypatch, config, distinct, table):
        times, coords, pad = make_batch(1, 12, distinct, seed=distinct)
        times, coords, pad = times[0], coords[0], pad[0]
        pad[:4] = True
        calls = table_calls(monkeypatch)
        for mask in (pad, None, np.ones(12, dtype=bool)):
            same_bits(
                build_relation_matrix(times, coords, config, mask),
                oracle_relation(times, coords, config, mask),
            )
        assert bool(calls) == table

    def test_selection_boundary(self, monkeypatch):
        """The table is used only when it has fewer pairs than the grid."""
        n = 4
        times = np.arange(n, dtype=np.float64) * 3600.0
        for distinct, table in ((n, False), (n - 1, True)):
            coords = np.stack([np.linspace(40.0, 41.0, distinct)] * 2, axis=-1)
            coords = coords[np.arange(n) % distinct]
            calls = table_calls(monkeypatch)
            same_bits(build_relation_matrix(times, coords), oracle_relation(times, coords))
            assert bool(calls) == table

    def test_all_coincident(self):
        times, coords, pad = make_batch(5, 10, 1, seed=3)
        same_bits(build_relation_matrix(times, coords, pad_mask=pad),
                  oracle_relation(times, coords, pad_mask=pad))

    def test_nan_timestamp(self):
        times, coords, pad = make_batch(4, 10, 3, seed=9)
        times[2, 6] = np.nan
        same_bits(build_relation_matrix(times, coords, pad_mask=pad),
                  oracle_relation(times, coords, pad_mask=pad))

    def test_paper_shape(self):
        times, coords, pad = make_batch(16, 100, 250, seed=7)
        same_bits(build_relation_matrix(times, coords, pad_mask=pad),
                  oracle_relation(times, coords, pad_mask=pad))


# ----------------------------------------------------------------------
# scaled_relation_bias and the attend mask
# ----------------------------------------------------------------------
class TestScaledBias:
    @pytest.mark.parametrize("config", CONFIGS)
    def test_matches_oracle(self, config):
        times, coords, pad = make_batch(6, 15, 9, seed=11, all_pad_row=True)
        mask = causal_attend_mask(pad)
        relation = build_relation_matrix(times, coords, config, pad)
        same_bits(scaled_relation_bias(relation, mask), oracle_bias(relation, mask))

    def test_arbitrary_values_and_blocked_rows(self):
        rng = np.random.default_rng(2)
        relation = rng.normal(scale=5.0, size=(3, 9, 9)).astype(np.float32)
        mask = rng.random((3, 9, 9)) < 0.5
        mask[0, 2] = True  # a fully blocked row
        relation[1, 4, 2], mask[1, 4, 2] = np.nan, False  # e.g. a corrupted cache entry
        same_bits(scaled_relation_bias(relation, mask), oracle_bias(relation, mask))

    def test_float64_input_untouched(self):
        relation = np.arange(16, dtype=np.float64).reshape(4, 4)
        before = relation.copy()
        mask = np.triu(np.ones((4, 4), dtype=bool), k=1)
        same_bits(scaled_relation_bias(relation, mask), oracle_bias(relation, mask))
        np.testing.assert_array_equal(relation, before)

    def test_attend_mask_matches_oracle(self):
        _, _, pad = make_batch(7, 13, 5, seed=4, all_pad_row=True)
        np.testing.assert_array_equal(causal_attend_mask(pad), oracle_attend_mask(pad))


# ----------------------------------------------------------------------
# Position codes
# ----------------------------------------------------------------------
class TestPositionCodes:
    @pytest.mark.parametrize("encoder, oracle", [
        (TimeAwarePositionEncoder, oracle_tape),
        (VanillaPositionEncoder, oracle_vanilla),
    ])
    @pytest.mark.parametrize("dim", [8, 64])
    def test_matches_oracle(self, encoder, oracle, dim):
        times, _, pad = make_batch(9, 25, 5, seed=dim, all_pad_row=True)
        enc = encoder(dim)
        for mask in (pad, None, np.zeros_like(pad)):
            same_bits(enc(times, pad_mask=mask), oracle(times, dim, pad_mask=mask))
        # A single (n,) sequence.
        same_bits(enc(times[1], pad_mask=pad[1]), oracle(times[1], dim, pad_mask=pad[1]))


# ----------------------------------------------------------------------
# build_relation_matrix_cached
# ----------------------------------------------------------------------
def computed_rows():
    return REGISTRY.value("repro_relation_rows_computed_total") or 0.0


class TestCachedBuild:
    def test_batched_misses_match_per_row_builds(self):
        config = RelationConfig()
        times, coords, pad = make_batch(10, 16, 7, seed=21, all_pad_row=True)
        # Row 7 repeats row 2 exactly, so it hits the entry row 2 stores.
        times[7], coords[7], pad[7] = times[2], coords[2], pad[2]
        owners = [f"user{i}" for i in range(10)]
        warm = [0, 3, 5]
        batches = [
            (times[warm], coords[warm], pad[warm], [owners[i] for i in warm]),
            (times, coords, pad, owners),  # 3 hits, 6 misses, 1 repeat
            (times, coords, pad, owners),  # all hits
        ]
        ours, theirs = LRUCache(64, name="relations"), LRUCache(64, name="relations")
        for batch_times, batch_coords, batch_pad, batch_owners in batches:
            with observability():
                before = computed_rows()
                got = build_relation_matrix_cached(
                    batch_times, batch_coords, config, batch_pad, ours, owners=batch_owners
                )
                ours_computed = computed_rows() - before
            want, want_computed = oracle_cached(
                batch_times, batch_coords, config, batch_pad, theirs, owners=batch_owners
            )
            same_bits(got, want)
            assert ours_computed == want_computed
        assert ours_computed == 0
        assert (ours.stats.hits, ours.stats.misses) == (theirs.stats.hits, theirs.stats.misses)
        assert set(ours._data) == set(theirs._data)
        assert ours._key_owner == theirs._key_owner

    def test_one_build_call_for_all_misses(self, monkeypatch):
        times, coords, pad = make_batch(6, 12, 50, seed=5)
        calls = []
        original = relation_module.build_relation_matrix

        def counted(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(relation_module, "build_relation_matrix", counted)
        cache = LRUCache(64)
        build_relation_matrix_cached(times[:2], coords[:2], RelationConfig(), pad[:2], cache)
        build_relation_matrix_cached(times, coords, RelationConfig(), pad, cache)
        assert calls == [(2, 12), (4, 12)]

    def test_cached_entries_are_owned_rows(self):
        times, coords, pad = make_batch(4, 10, 30, seed=8)
        cache = LRUCache(64)
        out = build_relation_matrix_cached(times, coords, RelationConfig(), pad, cache)
        for value in cache._data.values():
            assert value.base is None
        same_bits(out, oracle_relation(times, coords, RelationConfig(), pad))
