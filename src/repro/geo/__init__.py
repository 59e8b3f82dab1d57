"""``repro.geo`` — geography substrate: haversine distances, quadkey
encoding (GeoSAN geography-encoder input), KD-tree POI neighbourhood
search, and coarse gridding."""

from .grid import (
    GRID_BACKEND_MIN_POIS,
    GridIndex,
    build_spatial_index,
    resolve_spatial_backend,
)
from .gridding import GridSpec
from .haversine import EARTH_RADIUS_KM, haversine, pairwise_haversine
from .neighbors import (
    PoiIndex,
    SpatialIndexBase,
    canonical_topk,
    chord_to_km,
    latlon_to_unit_xyz,
    pad_pool,
    xyz_distance_km,
)
from .quadkey import (
    QuadkeyVocab,
    latlon_to_quadkey,
    latlon_to_tile_xy,
    quadkey_ngram_ids,
    quadkey_to_ngrams,
)

__all__ = [
    "EARTH_RADIUS_KM",
    "haversine",
    "pairwise_haversine",
    "PoiIndex",
    "GridIndex",
    "SpatialIndexBase",
    "build_spatial_index",
    "resolve_spatial_backend",
    "GRID_BACKEND_MIN_POIS",
    "latlon_to_unit_xyz",
    "chord_to_km",
    "xyz_distance_km",
    "canonical_topk",
    "pad_pool",
    "GridSpec",
    "latlon_to_quadkey",
    "latlon_to_tile_xy",
    "quadkey_ngram_ids",
    "quadkey_to_ngrams",
    "QuadkeyVocab",
]
