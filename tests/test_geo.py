"""Tests for the geography substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.geo_encoder as geo_encoder_module
from repro.core.geo_encoder import GeographyEncoder
from repro.geo import (
    EARTH_RADIUS_KM,
    GridSpec,
    PoiIndex,
    QuadkeyVocab,
    haversine,
    latlon_to_quadkey,
    latlon_to_tile_xy,
    latlon_to_unit_xyz,
    pairwise_haversine,
    quadkey_ngram_ids,
    quadkey_to_ngrams,
)


class TestHaversine:
    def test_zero_distance(self):
        assert haversine(43.0, 125.0, 43.0, 125.0) == pytest.approx(0.0)

    def test_known_distance_equator_degree(self):
        # One degree of longitude at the equator is ~111.19 km.
        d = haversine(0.0, 0.0, 0.0, 1.0)
        assert d == pytest.approx(111.19, rel=1e-3)

    def test_symmetry(self):
        a = haversine(43.1, 125.2, 44.5, 126.0)
        b = haversine(44.5, 126.0, 43.1, 125.2)
        assert a == pytest.approx(b)

    def test_antipodal_does_not_nan(self):
        d = haversine(0.0, 0.0, 0.0, 180.0)
        assert np.isfinite(d)
        assert d == pytest.approx(np.pi * EARTH_RADIUS_KM, rel=1e-6)

    def test_vectorized(self):
        lat = np.array([0.0, 10.0])
        out = haversine(lat, 0.0, lat, 1.0)
        assert out.shape == (2,)
        assert out[1] < out[0]  # longitude degrees shrink away from equator

    def test_pairwise_matrix(self):
        coords = np.array([[43.0, 125.0], [43.5, 125.5], [44.0, 126.0]])
        m = pairwise_haversine(coords)
        assert m.shape == (3, 3)
        np.testing.assert_allclose(np.diag(m), 0.0, atol=1e-9)
        np.testing.assert_allclose(m, m.T, atol=1e-9)
        # Triangle inequality.
        assert m[0, 2] <= m[0, 1] + m[1, 2] + 1e-9

    def test_pairwise_rectangular(self):
        a = np.array([[43.0, 125.0]])
        b = np.array([[43.0, 125.0], [44.0, 126.0]])
        m = pairwise_haversine(a, b)
        assert m.shape == (1, 2)

    def test_pairwise_shape_validation(self):
        with pytest.raises(ValueError):
            pairwise_haversine(np.zeros((3,)))


class TestQuadkey:
    def test_length_equals_level(self):
        qk = latlon_to_quadkey(43.88, 125.35, level=12)
        assert len(qk) == 12
        assert set(qk) <= set("0123")

    def test_nearby_points_share_prefix(self):
        a = latlon_to_quadkey(43.8800, 125.3500, level=17)
        b = latlon_to_quadkey(43.8801, 125.3501, level=17)
        c = latlon_to_quadkey(-33.86, 151.21, level=17)  # Sydney
        shared_ab = len([1 for x, y in zip(a, b) if x == y])
        # Common prefix length via itertools-free scan.
        prefix_ab = 0
        for x, y in zip(a, b):
            if x != y:
                break
            prefix_ab += 1
        prefix_ac = 0
        for x, y in zip(a, c):
            if x != y:
                break
            prefix_ac += 1
        assert prefix_ab > prefix_ac
        assert prefix_ab >= 10

    def test_level_validation(self):
        with pytest.raises(ValueError):
            latlon_to_quadkey(0, 0, level=0)

    def test_extreme_latitude_clamped(self):
        qk = latlon_to_quadkey(89.9, 0.0, level=10)
        assert len(qk) == 10

    def test_ngrams(self):
        assert quadkey_to_ngrams("012301", 3) == ["012", "123", "230", "301"]

    def test_ngrams_short_input(self):
        assert quadkey_to_ngrams("01", 6) == ["01"]

    def test_vocab_encodes_consistently(self):
        vocab = QuadkeyVocab(n=3)
        ids1 = vocab.encode("0123012")
        ids2 = vocab.encode("0123012")
        assert ids1 == ids2
        assert all(i >= 2 for i in ids1)

    def test_vocab_frozen_maps_unknown_to_unk(self):
        vocab = QuadkeyVocab(n=3)
        vocab.encode("000000")
        vocab.freeze()
        ids = vocab.encode("333333")
        assert set(ids) == {QuadkeyVocab.UNK}

    def test_encode_batch_pads(self):
        vocab = QuadkeyVocab(n=2)
        out = vocab.encode_batch(["0123", "01"])
        assert out.shape == (2, 3)
        assert out[1, 1] == QuadkeyVocab.PAD


def string_ngram_ids(poi_coords, level, n):
    """Reference for :func:`quadkey_ngram_ids`: per-POI quadkey strings
    through :class:`QuadkeyVocab`, laid out with a padding row 0."""
    poi_coords = np.asarray(poi_coords, dtype=np.float64)
    vocab = QuadkeyVocab(n=n)
    quadkeys = [latlon_to_quadkey(lat, lon, level=level) for lat, lon in poi_coords[1:]]
    if not quadkeys:
        return np.zeros((len(poi_coords), 1), dtype=np.int64), len(vocab)
    grams = vocab.encode_batch(quadkeys)
    ids = np.zeros((len(poi_coords), grams.shape[1]), dtype=np.int64)
    ids[1:] = grams
    return ids, len(vocab)


#: Poles, the Mercator clamp, the antimeridian and out-of-range longitudes.
EDGE_POINTS = [
    (90.0, 0.0), (-90.0, 0.0), (85.05112878, 180.0), (-85.05112878, -180.0),
    (0.0, 180.0), (0.0, -180.0), (12.5, 179.9999999), (12.5, -179.9999999),
    (33.0, 200.0), (-33.0, -200.0), (95.0, 0.0), (0.0, 0.0),
]


@st.composite
def catalogues(draw):
    point = st.one_of(
        st.sampled_from(EDGE_POINTS),
        st.tuples(st.floats(-95.0, 95.0), st.floats(-200.0, 200.0)),
        # A tight city-scale cluster, so many POIs share long prefixes.
        st.tuples(st.floats(43.87, 43.89), st.floats(125.34, 125.36)),
    )
    points = draw(st.lists(point, max_size=40))
    if points:
        picks = draw(st.lists(st.integers(0, len(points) - 1), max_size=10))
        points += [points[i] for i in picks]
    return np.array([(0.0, 0.0)] + points, dtype=np.float64)


class TestQuadkeyNgramIds:
    @given(catalogues(), st.integers(1, 23), st.integers(1, 25))
    @settings(max_examples=200, deadline=None)
    def test_equals_string_vocab(self, coords, level, n):
        ids, vocab_size = quadkey_ngram_ids(coords, level=level, n=n)
        expected, expected_size = string_ngram_ids(coords, level, n)
        assert ids.dtype == expected.dtype == np.int64
        np.testing.assert_array_equal(ids, expected)
        assert vocab_size == expected_size

    @pytest.mark.parametrize("rows", [0, 1])
    def test_empty_catalogue(self, rows):
        ids, vocab_size = quadkey_ngram_ids(np.zeros((rows, 2)), level=17, n=6)
        assert ids.shape == (rows, 1) and not ids.any()
        assert vocab_size == 2

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            quadkey_ngram_ids(np.zeros((2, 2)), level=17, n=0)

    @pytest.mark.parametrize("pooling", ["mean", "attn"])
    def test_encoder_forward_matches_string_ids(self, monkeypatch, pooling):
        rng = np.random.default_rng(5)
        coords = np.vstack([
            [0.0, 0.0],
            np.column_stack([rng.uniform(43.8, 44.0, 59), rng.uniform(125.2, 125.5, 59)]),
            EDGE_POINTS,
        ])
        poi_ids = np.arange(len(coords)).reshape(2, -1)
        fast = GeographyEncoder(coords, 8, level=14, ngram=4, pooling=pooling,
                                rng=np.random.default_rng(0))
        monkeypatch.setattr(geo_encoder_module, "quadkey_ngram_ids", string_ngram_ids)
        oracle = GeographyEncoder(coords, 8, level=14, ngram=4, pooling=pooling,
                                  rng=np.random.default_rng(0))
        np.testing.assert_array_equal(fast.gram_ids, oracle.gram_ids)
        for (name, a), (_, b) in zip(fast.named_parameters(), oracle.named_parameters()):
            assert a.data.shape == b.data.shape, name
            np.testing.assert_array_equal(a.data, b.data)
        out_fast = fast(poi_ids).data
        out_oracle = oracle(poi_ids).data
        assert out_fast.tobytes() == out_oracle.tobytes()


class TestNonFiniteCoordinates:
    @pytest.mark.parametrize("lat,lon", [
        (np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0), (0.0, -np.inf),
    ])
    def test_tile_xy_rejects(self, lat, lon):
        with pytest.raises(ValueError, match="finite"):
            latlon_to_tile_xy(lat, lon, 17)
        with pytest.raises(ValueError, match="finite"):
            latlon_to_tile_xy(np.array([10.0, lat]), np.array([20.0, lon]), 17)

    def test_consumers_reject(self):
        coords = np.array([[0.0, 0.0], [43.88, 125.35], [np.nan, 125.0]])
        with pytest.raises(ValueError, match="finite"):
            quadkey_ngram_ids(coords)
        with pytest.raises(ValueError, match="finite"):
            GeographyEncoder(coords, 8, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="finite"):
            PoiIndex(coords[1:])
        with pytest.raises(ValueError, match="finite"):
            latlon_to_quadkey(np.nan, 0.0)

    def test_padding_row_is_not_tiled(self):
        coords = np.array([[np.nan, np.nan], [43.88, 125.35]])
        ids, _ = quadkey_ngram_ids(coords)
        assert (ids[0] == QuadkeyVocab.PAD).all()


class TestPoiIndex:
    @pytest.fixture()
    def index(self):
        coords = np.array(
            [[43.0, 125.0], [43.001, 125.001], [43.5, 125.5], [44.0, 126.0], [47.0, 130.0]]
        )
        return PoiIndex(coords, offset=1)

    def test_query_orders_by_distance(self, index):
        ids, dist = index.query(1, 4)
        assert ids[0] == 2  # the 0.001-degree neighbour
        assert (np.diff(dist) >= -1e-9).all()

    def test_query_excludes_self(self, index):
        ids, _ = index.query(3, 4)
        assert 3 not in ids

    def test_query_out_of_range(self, index):
        with pytest.raises(IndexError):
            index.query(0, 2)
        with pytest.raises(IndexError):
            index.query(6, 2)

    def test_distances_match_haversine(self, index):
        ids, dist = index.query(1, 2)
        expected = haversine(43.0, 125.0, 43.001, 125.001)
        assert dist[0] == pytest.approx(expected, rel=1e-6)

    def test_nearest_excluding(self, index):
        ids = index.nearest_excluding(1, 2, exclude={2})
        assert 2 not in ids
        assert len(ids) == 2

    def test_nearest_excluding_exhausts(self, index):
        ids = index.nearest_excluding(1, 10, exclude={2, 3})
        assert set(ids) == {4, 5}

    def test_unit_xyz_on_sphere(self):
        coords = np.array([[43.0, 125.0], [-80.0, 10.0]])
        xyz = latlon_to_unit_xyz(coords)
        np.testing.assert_allclose(np.linalg.norm(xyz, axis=1), 1.0, atol=1e-12)


class TestGridSpec:
    @pytest.fixture()
    def grid(self):
        return GridSpec(43.0, 44.0, 125.0, 126.0, rows=4, cols=5)

    def test_cell_count(self, grid):
        assert grid.num_cells == 20

    def test_cell_of_corners(self, grid):
        assert grid.cell_of(43.0, 125.0) == 0
        assert grid.cell_of(44.0, 126.0) == 19

    def test_cell_center_roundtrip(self, grid):
        for cell in range(grid.num_cells):
            lat, lon = grid.cell_center(cell)
            assert grid.cell_of(lat, lon) == cell

    def test_out_of_box_clamped(self, grid):
        assert grid.cell_of(99.0, 200.0) == 19

    def test_neighbors_interior(self, grid):
        n = grid.neighbors_of(grid.cell_of(43.5, 125.5), radius=1)
        assert len(n) == 9

    def test_neighbors_corner(self, grid):
        n = grid.neighbors_of(0, radius=1)
        assert len(n) == 4

    def test_degenerate_box_raises(self):
        with pytest.raises(ValueError):
            GridSpec(44.0, 43.0, 125.0, 126.0, rows=2, cols=2)

    def test_cell_center_out_of_range(self, grid):
        with pytest.raises(IndexError):
            grid.cell_center(20)
