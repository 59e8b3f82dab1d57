"""Property suite for the spatial index and the scaling layer above it.

Every k-NN consumer is checked bitwise against one brute-force oracle
(all rows, :func:`xyz_distance_km`, a ``(distance, id)`` lexsort):

- ``PoiIndex.query`` and ``nearest_excluding`` on random catalogues
  with poles, antimeridian and duplicate coordinates, including the
  tie cases where the ``k + 2`` fast path must fall back to a ball
  query;
- the streaming negative sampler equals ``brute_pools[targets, cols]``
  under the same seed (and the repeat-last padding on tiny
  catalogues), and samplers over one dataset share its index's pool
  LRU without seeing each other's widths;
- FPMC-LR's localized regions, evaluation slates and serving slates;
- sharded loss == unsharded loss: forward within 1e-6, gradients
  bitwise, across shard sizes including a ragged last shard.
"""

import numpy as np
import pytest

from repro.core.loss import weighted_bce_loss, weighted_bce_loss_sharded
from repro.data import EvalCandidateRetriever, NearestNegativeSampler
from repro.data.types import PAD_POI
from repro.geo import (
    PoiIndex,
    build_spatial_index,
    canonical_topk,
    latlon_to_unit_xyz,
    xyz_distance_km,
)
from repro.nn.tensor import Tensor, no_grad


def random_coords(rng, n, lat_span=(-80, 80), lon_span=(-180, 180)):
    return np.stack(
        [rng.uniform(*lat_span, n), rng.uniform(*lon_span, n)], axis=1
    )


def edge_case_coords(rng, n):
    """Random catalogue with the awkward corners injected."""
    coords = random_coords(rng, n)
    coords[0] = [89.9, 10.0]       # near the poles
    coords[1] = [-89.9, -170.0]
    coords[2] = [0.0, 179.95]      # antimeridian straddle
    coords[3] = [0.0, -179.95]
    coords[4] = coords[5]          # exact duplicate coordinates
    coords[6] = coords[5]
    return coords


def brute_knn(coords, poi, k):
    """Oracle: canonical k-NN of ``poi`` (ids from 1) over every row."""
    xyz = latlon_to_unit_xyz(coords)
    rows = np.delete(np.arange(len(coords)), poi - 1)
    km = xyz_distance_km(xyz[rows], xyz[poi - 1])
    order = np.lexsort((rows, km))[:k]
    return rows[order] + 1, km[order]


def fresh(ds):
    """The same catalogue as a new dataset, so it gets its own index and
    pool LRU."""
    from repro.data.types import CheckInDataset

    return CheckInDataset(name=ds.name, poi_coords=ds.poi_coords, sequences=ds.sequences)


def count_pool_queries(monkeypatch, index):
    """Count ``index.query_canonical`` calls (the pool LRU's misses)."""
    calls = []
    query = index.query_canonical

    def counted(poi_id, k):
        calls.append((poi_id, k))
        return query(poi_id, k)

    monkeypatch.setattr(index, "query_canonical", counted)
    return calls


def brute_excluding(coords, poi, k, exclude):
    ids, _ = brute_knn(coords, poi, len(coords) - 1)
    return np.array([p for p in ids if p not in exclude][:k], dtype=np.int64)


def brute_pools(coords, width):
    """Oracle ``(P + 1, width)`` pool table; row 0 (padding) unused."""
    n = len(coords)
    pools = np.zeros((n + 1, width), dtype=np.int64)
    for poi in range(1, n + 1):
        pools[poi] = brute_knn(coords, poi, width)[0]
    return pools


def expected_draw(pools, targets, num_negatives, pool_size, seed):
    """What the sampler must return: the same column draws, looked up
    in the oracle table."""
    flat = np.asarray(targets).reshape(-1)
    out = np.zeros((flat.size, num_negatives), dtype=np.int64)
    real = flat != PAD_POI
    cols = np.random.default_rng(seed).integers(
        0, pool_size, size=(int(real.sum()), num_negatives)
    )
    out[real] = pools[flat[real][:, None], cols]
    return out.reshape(*np.shape(targets), num_negatives)


class CountingTree:
    """Wraps a cKDTree and counts the fallback ball queries."""

    def __init__(self, tree):
        self.tree = tree
        self.ball_queries = 0

    def query(self, *args, **kwargs):
        return self.tree.query(*args, **kwargs)

    def query_ball_point(self, *args, **kwargs):
        self.ball_queries += 1
        return self.tree.query_ball_point(*args, **kwargs)


class TestKnnOracle:
    def test_query_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            n = int(rng.integers(60, 300))
            coords = edge_case_coords(rng, n)
            index = PoiIndex(coords)
            for k in (1, 2, 7, 40, n - 2, n - 1, n + 5):
                pois = np.concatenate([np.arange(1, 8), rng.integers(1, n + 1, 8)])
                for poi in pois:
                    ids, km = index.query(int(poi), k)
                    expect_ids, expect_km = brute_knn(coords, int(poi), k)
                    np.testing.assert_array_equal(ids, expect_ids)
                    np.testing.assert_array_equal(km, expect_km)

    def test_canonical_topk_matches_lexsort(self):
        rng = np.random.default_rng(5)
        for ties in (False, True):
            km = rng.random(500)
            if ties:
                km[rng.integers(0, 500, 50)] = km[7]
            ids = rng.permutation(500)
            for k in (1, 10, 500):
                order = np.lexsort((ids, km))[:k]
                got_ids, got_km = canonical_topk(ids, km, k)
                np.testing.assert_array_equal(got_ids, ids[order])
                np.testing.assert_array_equal(got_km, km[order])

    def test_query_canonical_is_query(self):
        assert PoiIndex.query_canonical is PoiIndex.query

    def test_fast_path_skips_ball_query_on_distinct_distances(self):
        rng = np.random.default_rng(3)
        coords = random_coords(rng, 200)
        index = PoiIndex(coords)
        index._tree = CountingTree(index._tree)
        for poi in (1, 50, 200):
            ids, km = index.query(poi, 20)
            np.testing.assert_array_equal(ids, brute_knn(coords, poi, 20)[0])
        assert index._tree.ball_queries == 0

    @pytest.mark.parametrize("k", [1, 3, 5, 8])
    def test_ties_past_the_window_fall_back(self, k):
        # Ten POIs share one coordinate: the k + 2 window holds only
        # some of them, so the boundary tie must be recovered by the
        # ball query and the lowest ids must win.
        rng = np.random.default_rng(k)
        coords = np.concatenate([np.tile([[10.0, 10.0]], (10, 1)), random_coords(rng, 40)])
        index = PoiIndex(coords)
        index._tree = CountingTree(index._tree)
        for poi in range(1, 11):
            ids, km = index.query(poi, k)
            expect_ids, expect_km = brute_knn(coords, poi, k)
            np.testing.assert_array_equal(ids, expect_ids)
            np.testing.assert_array_equal(km, expect_km)
            assert (km == 0.0).all()
        assert index._tree.ball_queries == 10

    def test_duplicate_coordinates_tie_break_deterministic(self):
        coords = np.array([[10.0, 10.0]] * 6 + [[11.0, 10.0], [12.0, 10.0]])
        index = PoiIndex(coords)
        for poi in range(1, 9):
            ids, km = index.query(poi, 5)
            expect_ids, expect_km = brute_knn(coords, poi, 5)
            np.testing.assert_array_equal(ids, expect_ids)
            np.testing.assert_array_equal(km, expect_km)
        # Lowest ids win the zero-distance ties.
        ids, km = index.query(1, 5)
        assert list(ids) == [2, 3, 4, 5, 6]
        assert (km == 0.0).all()

    def test_nearest_excluding_matches_brute_force(self):
        rng = np.random.default_rng(23)
        for coords in (random_coords(rng, 90), edge_case_coords(rng, 90)):
            index = PoiIndex(coords)
            for size in (0, 25, 85):
                exclude = {int(p) for p in rng.integers(1, 91, size)}
                for poi in (1, 5, 45, 90):
                    for k in (1, 10, 100):
                        np.testing.assert_array_equal(
                            index.nearest_excluding(poi, k, exclude=set(exclude)),
                            brute_excluding(coords, poi, k, exclude),
                        )

    def test_fpmc_regions_match_brute_force(self, micro_dataset):
        from repro.baselines.fpmc_lr import FPMCLR
        from repro.data import partition

        examples, _ = partition(micro_dataset, n=8)
        model = FPMCLR(dim=4, neighborhood=12, epochs=0)
        model.fit(micro_dataset, examples)
        np.testing.assert_array_equal(
            model._pools, brute_pools(micro_dataset.poi_coords[1:], 12)
        )


class TestBatchedKnn:
    """One tree query serves a batch of anchors: every row equals its
    single-anchor ``query`` / ``nearest_excluding`` and brute force."""

    def assert_batch_matches(self, coords, anchors, k, excludes=None):
        index = PoiIndex(coords)
        anchors = [int(a) for a in anchors]
        ids, km = index._knn(index._rows_of(anchors), k)
        for row, anchor in enumerate(anchors):
            one_ids, one_km = index.query(anchor, k)
            expect_ids, expect_km = brute_knn(coords, anchor, k)
            np.testing.assert_array_equal(ids[row] + 1, one_ids)
            np.testing.assert_array_equal(km[row], one_km)
            np.testing.assert_array_equal(one_ids, expect_ids)
            np.testing.assert_array_equal(one_km, expect_km)
        excludes = excludes or [set() for _ in anchors]
        batch = index.nearest_excluding(anchors, k, exclude=excludes)
        assert len(batch) == len(anchors)
        for anchor, exclude, got in zip(anchors, excludes, batch):
            np.testing.assert_array_equal(
                got, index.nearest_excluding(anchor, k, exclude=set(exclude))
            )
            np.testing.assert_array_equal(
                got, brute_excluding(coords, anchor, k, exclude)
            )

    def test_random_catalogues(self):
        rng = np.random.default_rng(31)
        for n in (60, 250):
            coords = edge_case_coords(rng, n)
            anchors = np.concatenate([np.arange(1, 8), rng.integers(1, n + 1, 12)])
            for k in (1, 5, 40):
                self.assert_batch_matches(coords, anchors, k)

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_coincident_coordinates_tie_at_the_boundary(self, k):
        # Seven POIs share a coordinate and three more share another:
        # ties straddle the k-th position for some anchors, not others.
        rng = np.random.default_rng(k)
        coords = np.concatenate([
            np.tile([[20.0, 30.0]], (7, 1)),
            np.tile([[20.001, 30.0]], (3, 1)),
            random_coords(rng, 30, lat_span=(19, 21), lon_span=(29, 31)),
        ])
        self.assert_batch_matches(coords, list(range(1, 41)), k)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_anchor_absent_from_its_window(self, k):
        # More than k + 2 POIs at one coordinate: the tree's k + 2 window
        # may hold only the anchor's twins, not the anchor itself.
        rng = np.random.default_rng(7)
        coords = np.concatenate([np.tile([[-5.0, 5.0]], (k + 6, 1)), random_coords(rng, 20)])
        index = PoiIndex(coords)
        rows = np.arange(k + 6)
        _, idx = index._tree.query(index._xyz[rows], k=k + 2)
        assert not (idx == rows[:, None]).any(axis=1).all()
        self.assert_batch_matches(coords, list(range(1, k + 7)) + [k + 8], k)

    def test_near_tie_at_the_boundary_takes_the_ball_path(self):
        # lat +- d around the anchor: equal distances in exact arithmetic,
        # km a few ulps apart, so the window alone is not trusted.
        rng = np.random.default_rng(0)
        anchor, d = [16.435402478574517, -78.2725173202841], 0.0050563788696832744
        coords = np.concatenate([
            [anchor, [anchor[0] + d, anchor[1]], [anchor[0] - d, anchor[1]]],
            random_coords(rng, 20, lat_span=(30, 40), lon_span=(0, 10)),
        ])
        km = brute_knn(coords, 1, 2)[1]
        assert 0.0 < km[1] - km[0] < km[0] * 1e-9
        index = PoiIndex(coords)
        index._tree = CountingTree(index._tree)
        ids, _ = index._knn(index._rows_of([1, 4, 1]), 1)
        assert index._tree.ball_queries == 2
        np.testing.assert_array_equal(ids[:, 0] + 1, [brute_knn(coords, a, 1)[0][0] for a in (1, 4, 1)])
        self.assert_batch_matches(coords, [1, 2, 3, 4], 1)

    def test_k_at_or_above_catalogue_on_tiny_catalogues(self):
        rng = np.random.default_rng(4)
        for n in (2, 3, 4, 6):
            coords = random_coords(rng, n)
            coords[-1] = coords[0]
            for k in range(max(1, n - 3), n + 2):
                self.assert_batch_matches(coords, list(range(1, n + 1)), k)

    def test_exclude_sets_widen_the_window(self):
        rng = np.random.default_rng(12)
        coords = edge_case_coords(rng, 120)
        anchors = [1, 5, 60, 60, 119]
        # Excluding an anchor's own nearest POIs leaves only farther
        # ones: the shared window must reach past each row's k + 1.
        near = [set(brute_knn(coords, a, 30)[0].tolist()) for a in anchors]
        excludes = [near[0], set(), near[2] | {77}, set(range(1, 100)), near[4]]
        for k in (1, 10, 25):
            self.assert_batch_matches(coords, anchors, k, excludes)

    def test_repeated_anchors(self):
        rng = np.random.default_rng(2)
        coords = edge_case_coords(rng, 80)
        anchors = [9, 3, 9, 5, 5, 5, 9]
        excludes = [{1, 2}, set(), {4}, None, {6, 7}, set(), {1, 2}]
        index = PoiIndex(coords)
        batch = index.nearest_excluding(anchors, 12, exclude=excludes)
        for anchor, exclude, got in zip(anchors, excludes, batch):
            np.testing.assert_array_equal(
                got, brute_excluding(coords, anchor, 12, exclude or set())
            )
        self.assert_batch_matches(coords, anchors, 12)

    def test_out_of_range_and_misaligned_inputs(self):
        index = PoiIndex(random_coords(np.random.default_rng(0), 10))
        for bad in ([1, 11], [0], [3, -2]):
            with pytest.raises(IndexError, match="out of range"):
                index.nearest_excluding(bad, 3)
        with pytest.raises(IndexError, match="out of range"):
            index.query(11, 3)
        with pytest.raises(ValueError, match="align"):
            index.nearest_excluding([1, 2], 3, exclude=[set()])
        assert index.nearest_excluding([], 3) == []


class TestSharedHandle:
    def test_dataset_handle_cached(self, tiny_dataset):
        index = tiny_dataset.spatial_index()
        assert isinstance(index, PoiIndex)
        assert index is tiny_dataset.spatial_index()
        sampler = NearestNegativeSampler(
            tiny_dataset, num_negatives=3,
            rng=np.random.default_rng(0),
        )
        retriever = EvalCandidateRetriever(tiny_dataset)
        assert sampler.index is index and retriever.index is index

    def test_build_spatial_index_is_kdtree(self):
        coords = random_coords(np.random.default_rng(0), 30)
        index = build_spatial_index(coords)
        assert isinstance(index, PoiIndex) and len(index) == 30 and index.offset == 1


class TestStreamingSampler:
    def test_streaming_equals_brute_pools(self, tiny_dataset):
        targets = np.random.default_rng(2).integers(
            0, tiny_dataset.num_pois + 1, size=(6, 11)
        )
        sampler = NearestNegativeSampler(
            tiny_dataset, num_negatives=7, pool_size=30, rng=np.random.default_rng(42)
        )
        assert sampler.mode == "streaming"
        pools = brute_pools(tiny_dataset.poi_coords[1:], 30)
        np.testing.assert_array_equal(
            sampler.sample(targets), expected_draw(pools, targets, 7, 30, 42)
        )

    def test_streaming_cache_bounded_and_hit(self, tiny_dataset, monkeypatch):
        monkeypatch.setattr(PoiIndex, "POOL_CACHE_SIZE", 4)
        ds = fresh(tiny_dataset)
        sampler = NearestNegativeSampler(
            ds, num_negatives=3, pool_size=10, rng=np.random.default_rng(0)
        )
        pools = ds.spatial_index().pools
        sampler.sample(np.array([[1, 2, 3, 1, 2]]))
        sampler.sample(np.array([[1, 2, 3]]))
        assert len(pools) <= 4
        assert pools.stats.hits >= 3
        # More unique targets than capacity: the cache stays bounded.
        sampler.sample(np.arange(1, ds.num_pois + 1))
        assert len(pools) <= 4

    def test_pad_targets_give_pad(self, tiny_dataset):
        sampler = NearestNegativeSampler(
            tiny_dataset, num_negatives=3, rng=np.random.default_rng(0)
        )
        negs = sampler.sample(np.array([[PAD_POI, 2]]))
        assert (negs[0, 0] == PAD_POI).all()
        assert (negs[0, 1] != PAD_POI).all()


class TestSharedPools:
    """Pools live in the dataset's index, shared by every sampler."""

    def test_second_sampler_hits_and_draws_like_a_cold_one(self, tiny_dataset, monkeypatch):
        targets = np.random.default_rng(3).integers(
            0, tiny_dataset.num_pois + 1, size=(5, 9)
        )
        cold = NearestNegativeSampler(
            fresh(tiny_dataset), num_negatives=6, pool_size=25, rng=np.random.default_rng(9)
        ).sample(targets)

        ds = fresh(tiny_dataset)
        NearestNegativeSampler(
            ds, num_negatives=2, pool_size=25, rng=np.random.default_rng(1)
        ).sample(targets)
        calls = count_pool_queries(monkeypatch, ds.spatial_index())
        warm = NearestNegativeSampler(
            ds, num_negatives=6, pool_size=25, rng=np.random.default_rng(9)
        ).sample(targets)
        assert calls == []
        np.testing.assert_array_equal(warm, cold)
        pools = brute_pools(tiny_dataset.poi_coords[1:], 25)
        np.testing.assert_array_equal(warm, expected_draw(pools, targets, 6, 25, 9))

    def test_widths_never_cross(self):
        ds = TestTinyCataloguePadding().make_tiny()
        coords = ds.poi_coords[1:]
        samplers = [
            (NearestNegativeSampler(ds, num_negatives=2, pool_size=3,
                                    rng=np.random.default_rng(seed)), 3, seed)
            for seed in (1, 2)
        ] + [
            (NearestNegativeSampler(ds, num_negatives=2, pool_size=10,
                                    rng=np.random.default_rng(3)), 5, 3),
        ]
        targets = np.array([1, 4, 6, 4])
        for sampler, width, seed in samplers * 2:
            for target in targets:
                np.testing.assert_array_equal(
                    sampler.pool_for(int(target)), brute_pools(coords, width)[target]
                )
        for sampler, width, seed in samplers:
            sampler.rng = np.random.default_rng(seed)
            np.testing.assert_array_equal(
                sampler.sample(targets),
                expected_draw(brute_pools(coords, width), targets, 2, width, seed),
            )
        # One entry per (target, query width): 3 and the clamped 5.
        cached = ds.spatial_index().pools
        assert len(cached) == 6
        assert all((t, k) in cached for t in (1, 4, 6) for k in (3, 5))

    def test_lru_bound_holds_across_samplers(self, tiny_dataset, monkeypatch):
        monkeypatch.setattr(PoiIndex, "POOL_CACHE_SIZE", 5)
        ds = fresh(tiny_dataset)
        pools = brute_pools(ds.poi_coords[1:], 12)
        targets = np.arange(1, ds.num_pois + 1)
        for seed in range(3):
            sampler = NearestNegativeSampler(
                ds, num_negatives=4, pool_size=12, rng=np.random.default_rng(seed)
            )
            np.testing.assert_array_equal(
                sampler.sample(targets), expected_draw(pools, targets, 4, 12, seed)
            )
            assert len(ds.spatial_index().pools) <= 5
        assert ds.spatial_index().pools.stats.evictions >= 3 * ds.num_pois - 5

    def test_cached_pools_are_read_only(self, tiny_dataset):
        sampler = NearestNegativeSampler(
            fresh(tiny_dataset), num_negatives=2, pool_size=8,
            rng=np.random.default_rng(0),
        )
        with pytest.raises(ValueError):
            sampler.pool_for(1)[0] = 2


class TestTinyCataloguePadding:
    """A catalogue smaller than the requested pool: pools clamp."""

    def make_tiny(self):
        from repro.data.types import CheckInDataset, UserSequence

        coords = np.array(
            [[0.0, 0.0], [10.0, 10.0], [10.1, 10.0], [10.2, 10.0],
             [10.3, 10.0], [10.4, 10.0], [10.5, 10.0]]
        )
        seqs = {
            1: UserSequence(
                user=1,
                pois=np.array([1, 2, 3, 4, 5, 6]),
                times=np.arange(6, dtype=np.float64) * 3600,
            )
        }
        return CheckInDataset(name="tiny6", poi_coords=coords, sequences=seqs)

    def test_clamped_default_stays_exactly_full(self):
        ds = self.make_tiny()
        sampler = NearestNegativeSampler(
            ds, num_negatives=2, pool_size=10, rng=np.random.default_rng(0)
        )
        assert sampler.pool_size == ds.num_pois - 1
        pool = sampler.pool_for(1)
        assert len(set(pool)) == len(pool)


class TestShardedLoss:
    @pytest.mark.parametrize("shard_size", [1, 3, 16, 17, 85, 4096])
    def test_forward_and_grads_match_unsharded(self, shard_size):
        rng = np.random.default_rng(shard_size)
        b, n, L = 5, 17, 6
        pos = rng.normal(0, 2, (b, n)).astype(np.float32)
        neg = rng.normal(0, 2, (b, n, L)).astype(np.float32)
        mask = rng.random((b, n)) > 0.3
        for temperature in (1.0, 20.0):
            p1 = Tensor(pos.copy(), requires_grad=True)
            n1 = Tensor(neg.copy(), requires_grad=True)
            dense = weighted_bce_loss(p1, n1, mask, temperature=temperature)
            dense.backward()
            p2 = Tensor(pos.copy(), requires_grad=True)
            n2 = Tensor(neg.copy(), requires_grad=True)
            sharded = weighted_bce_loss_sharded(
                p2, n2, mask, temperature=temperature, shard_size=shard_size
            )
            sharded.backward()
            assert abs(float(dense.data) - float(sharded.data)) <= 1e-6
            np.testing.assert_array_equal(p1.grad, p2.grad)
            np.testing.assert_array_equal(n1.grad, n2.grad)

    def test_no_grad_and_delegation(self):
        rng = np.random.default_rng(0)
        pos = Tensor(rng.normal(size=(2, 5)).astype(np.float32))
        neg = Tensor(rng.normal(size=(2, 5, 3)).astype(np.float32))
        mask = np.ones((2, 5), dtype=bool)
        with no_grad():
            out = weighted_bce_loss_sharded(pos, neg, mask, shard_size=4)
        assert not out.requires_grad
        delegated = weighted_bce_loss_sharded(pos, neg, mask, shard_size=0)
        dense = weighted_bce_loss(pos, neg, mask)
        assert float(delegated.data) == float(dense.data)

    def test_train_config_accepts_and_validates(self):
        from repro.core import TrainConfig

        assert TrainConfig(loss_shard_size=64).loss_shard_size == 64
        with pytest.raises(ValueError):
            TrainConfig(loss_shard_size=-1)

    def test_data_parallel_rejects_loss_sharding(self, tiny_dataset):
        from repro.core import STiSANConfig, TrainConfig
        from repro.core.stisan import STiSAN
        from repro.parallel.trainer import DataParallelTrainer

        model = STiSAN(
            num_pois=tiny_dataset.num_pois,
            poi_coords=tiny_dataset.poi_coords,
            config=STiSANConfig.small(max_len=8, poi_dim=8, geo_dim=8, num_blocks=1),
            rng=np.random.default_rng(0),
        )
        with pytest.raises(ValueError, match="loss_shard_size"):
            DataParallelTrainer(
                model, tiny_dataset, [],
                config=TrainConfig(loss_shard_size=32),
            )


class TestSlates:
    def test_retriever_slates_match_brute_force(self, tiny_dataset):
        coords = tiny_dataset.poi_coords[1:]
        retriever = EvalCandidateRetriever(tiny_dataset, num_candidates=20)
        for user in tiny_dataset.users():
            target = int(tiny_dataset.sequences[user].pois[-1])
            visited = set(map(int, tiny_dataset.sequences[user].pois)) | {target}
            negatives = list(brute_excluding(coords, target, 20, visited))
            if len(negatives) < 20:
                chosen = set(negatives) | {target}
                negatives += list(brute_excluding(coords, target, 20 - len(negatives), chosen))
            np.testing.assert_array_equal(
                retriever.candidates(user, target), [target] + negatives
            )

    def test_service_slates_match_brute_force(self, micro_dataset):
        from repro.core.service import RecommendationService

        class NullScorer:
            def score_candidates(self, src, times, candidates):
                return np.zeros(candidates.shape, dtype=np.float32)

        service = RecommendationService(
            NullScorer(), micro_dataset, max_len=10, num_candidates=15
        )
        coords = micro_dataset.poi_coords[1:]
        sessions = [service.session(user) for user in micro_dataset.users()]
        slates = service._resolve_slates(sessions, exclude_visited=True, candidates=None)
        for session, slate in zip(sessions, slates):
            np.testing.assert_array_equal(
                slate, brute_excluding(coords, session.pois[-1], 15, set(session.pois))
            )
