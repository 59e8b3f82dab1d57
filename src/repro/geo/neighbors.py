"""k-nearest-neighbour search over POI coordinates.

Used for two protocol pieces of the paper:

- training negatives: "retrieve the L nearest POIs around [the target]"
  sampled "from the target's nearest 2000 neighbours";
- evaluation candidates: "the nearest 100 previously unvisited POIs
  around the target".

We build a scipy cKDTree over 3-D unit-sphere projections of the GPS
coordinates so Euclidean KD-tree distances order identically to
great-circle distances.

Every k-NN result uses one *canonical* ordering: sort by
``(distance_km, poi_id)`` with distances recomputed in numpy by
:func:`xyz_distance_km`, so results are deterministic even on
duplicate coordinates, where the tree's own tie order is not.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from .haversine import EARTH_RADIUS_KM


def latlon_to_unit_xyz(coords: np.ndarray) -> np.ndarray:
    """(n, 2) degrees -> (n, 3) points on the unit sphere.

    Chordal (Euclidean) distance is monotone in central angle, so
    nearest neighbours in xyz space match haversine nearest neighbours.
    """
    coords = np.asarray(coords, dtype=np.float64)
    lat = np.radians(coords[:, 0])
    lon = np.radians(coords[:, 1])
    cos_lat = np.cos(lat)
    return np.stack([cos_lat * np.cos(lon), cos_lat * np.sin(lon), np.sin(lat)], axis=1)


def chord_to_km(chord: np.ndarray) -> np.ndarray:
    """Convert unit-sphere chord length to great-circle km."""
    half = np.clip(np.asarray(chord) / 2.0, 0.0, 1.0)
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(half)


def xyz_distance_km(xyz_rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Great-circle km from query point(s) ``q`` to ``xyz_rows``.

    Every k-NN result routes its candidate distances through this exact
    sequence of numpy ops, so the canonical ``(distance, id)`` ordering
    does not depend on which candidates a query happened to gather.
    """
    diff = xyz_rows - q
    chord = np.sqrt((diff * diff).sum(axis=-1))
    return chord_to_km(chord)


def canonical_topk(ids: np.ndarray, dist_km: np.ndarray, k: int):
    """Sort candidates by ``(distance, id)`` and keep the first ``k``.

    The deterministic tie-break (lower id wins) is what makes k-NN
    results reproducible when coordinates collide exactly.
    """
    # Without exact distance ties a stable sort by distance alone is
    # already that order, and it is far cheaper than a lexsort on the
    # nearly sorted candidates a tree query returns.
    order = np.argsort(dist_km, kind="stable")
    ordered = dist_km[order]
    if (ordered[1:] == ordered[:-1]).any():
        order = np.lexsort((ids, dist_km))
    order = order[:k]
    return ids[order], dist_km[order]


def pad_pool(ids: np.ndarray, width: int) -> np.ndarray:
    """Right-pad a neighbour pool to ``width`` by repeating the last id.

    Duplicate-fill semantics of the negative sampler's pools: when a
    catalogue cannot supply ``width`` distinct neighbours, the farthest
    one found is repeated so the pool keeps a fixed shape and uniform
    column draws remain valid.  Repeating the *last* (farthest) id
    biases the duplicated mass toward the easiest negative, never
    toward the target itself.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size == 0:
        raise ValueError("cannot pad an empty neighbour pool")
    if ids.size >= width:
        return ids[:width]
    out = np.empty(width, dtype=np.int64)
    out[: ids.size] = ids
    out[ids.size:] = ids[-1]
    return out


class PoiIndex:
    """KD-tree spatial index over the POI catalogue.

    Parameters
    ----------
    coords : (num_pois, 2) array of (lat, lon); row i is POI id ``offset + i``.
    offset : first valid POI id (default 1: id 0 is the padding POI).
    """

    def __init__(self, coords: np.ndarray, offset: int = 1):
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError(f"expected (n, 2) coords, got {coords.shape}")
        if len(coords) == 0:
            raise ValueError("cannot index an empty catalogue")
        if not np.isfinite(coords).all():
            raise ValueError("coordinates must be finite")
        self.coords = coords
        self.offset = offset
        self._xyz = latlon_to_unit_xyz(coords)
        self._tree = cKDTree(self._xyz)

    def __len__(self) -> int:
        return len(self.coords)

    def _row_of(self, poi_id: int) -> int:
        row = poi_id - self.offset
        if not 0 <= row < len(self.coords):
            raise IndexError(f"POI id {poi_id} out of range")
        return row

    def query(self, poi_id: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(ids, distances_km) of the k nearest POIs to ``poi_id``,
        excluding the query POI, in canonical ``(distance, id)`` order.

        Fast path: ask the tree for ``k + 2`` rows, recompute km with
        :func:`xyz_distance_km` and sort canonically.  That window is
        provably enough when the ``(k+1)``-th km is above the k-th by a
        relative 1e-9; otherwise ties of the boundary distance may
        extend past it, and a closed ball at (slightly above) the
        window's edge recovers all of them before the canonical sort
        decides which tie members survive.
        """
        row = self._row_of(poi_id)
        n = len(self.coords)
        k = min(k, n - 1)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        q = self._xyz[row]
        window = k + 2 < n
        if window:
            dist, idx = self._tree.query(q, k=k + 2)
        else:
            idx = np.arange(n)  # the window is the whole catalogue
        cand = idx[idx != row]
        ids, km = canonical_topk(cand, xyz_distance_km(self._xyz[cand], q), k + 1)
        if window and not km[k] > km[k - 1] * (1.0 + 1e-9):
            radius = float(dist[-1]) * (1.0 + 1e-9)
            idx = np.asarray(self._tree.query_ball_point(q, radius), dtype=np.int64)
            cand = idx[idx != row]
            ids, km = canonical_topk(cand, xyz_distance_km(self._xyz[cand], q), k)
        return ids[:k] + self.offset, km[:k]

    #: The name the negative sampler's pool builds call.
    query_canonical = query

    def nearest_excluding(
        self,
        poi_id: int,
        k: int,
        exclude: Optional[set] = None,
    ) -> np.ndarray:
        """The k nearest POI ids to ``poi_id`` not in ``exclude``.

        Implements the evaluation-candidate retrieval: nearest 100
        *previously unvisited* POIs around the target.
        """
        exclude = exclude or set()
        # Expand the search window until enough survivors are found.
        window = k + len(exclude) + 1
        while True:
            ids, _ = self.query(poi_id, min(window, len(self.coords) - 1))
            survivors = [p for p in ids.tolist() if p not in exclude]
            if len(survivors) >= k or len(ids) >= len(self.coords) - 1:
                return np.array(survivors[:k], dtype=np.int64)
            window *= 2
