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


class PoiIndex:
    """KD-tree spatial index over the POI catalogue.

    Parameters
    ----------
    coords : (num_pois, 2) array of (lat, lon); row i is POI id ``offset + i``.
    offset : first valid POI id (default 1: id 0 is the padding POI).
    """

    #: Entries of the neighbour-pool LRU that :meth:`pool` keeps.
    POOL_CACHE_SIZE = 8192

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

        from ..core.cache import LRUCache  # repro-lint: disable=REPRO-HOTIMPORT -- breaks the core<->geo import cycle; runs once per index, not per query

        self.pools = LRUCache(self.POOL_CACHE_SIZE, name="negative-pools")

    def __len__(self) -> int:
        return len(self.coords)

    def _rows_of(self, poi_ids) -> np.ndarray:
        """Catalogue rows of POI ids; ``IndexError`` for an id outside
        the catalogue."""
        rows = np.asarray(poi_ids).reshape(-1) - self.offset
        bad = (rows < 0) | (rows >= len(self.coords))
        if bad.any():
            raise IndexError(f"POI id {rows[bad][0] + self.offset} out of range")
        return rows

    def _knn(self, rows: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """``(B, k)`` rows and km of the k nearest POIs to each of the
        catalogue ``rows`` (B,), each excluding its anchor, in canonical
        ``(distance, id)`` order.  ``k`` is clamped to ``n - 1``.

        One tree query asks for ``k + 2`` rows per anchor; km comes from
        :func:`xyz_distance_km` and a stable sort orders each row.  That
        window is provably enough when the row has no exact km tie and
        its ``(k+1)``-th km is above the k-th by a relative 1e-9.  Any
        other row (ties, a boundary tie, or an anchor crowded out of its
        own window by more than ``k + 2`` POIs at its coordinate) is
        redone alone: a ``(distance, id)`` lexsort, and at a boundary
        tie a closed ball at (slightly above) the window's edge, which
        recovers every tie member before the sort decides which survive.
        """
        n = len(self.coords)
        k = min(k, n - 1)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        q = self._xyz[rows]
        window = k + 2 < n
        if window:
            dist, idx = self._tree.query(q, k=k + 2)
        else:
            idx = np.broadcast_to(np.arange(n), (len(rows), n))  # the whole catalogue
        drop = idx == rows[:, None]
        # An anchor crowded out of its window drops the window's last
        # row instead; its window is all zero-km ties, so it is redone.
        drop[~drop.any(axis=1), -1] = True
        cand = idx[~drop].reshape(len(rows), idx.shape[1] - 1)
        km = xyz_distance_km(self._xyz[cand], q[:, None])
        order = np.argsort(km, axis=1, kind="stable")
        batch = np.arange(len(rows))[:, None]
        ids, km = cand[batch, order], km[batch, order]
        redo = (km[:, 1:] == km[:, :-1]).any(axis=1)
        if window:
            redo |= ~(km[:, k] > km[:, k - 1] * (1.0 + 1e-9))
        ids, km = ids[:, :k], km[:, :k]
        for b in np.flatnonzero(redo):
            row, qb = rows[b], q[b]
            cand_b = idx[b][idx[b] != row]
            ids_b, km_b = canonical_topk(cand_b, xyz_distance_km(self._xyz[cand_b], qb), k + 1)
            if window and not km_b[k] > km_b[k - 1] * (1.0 + 1e-9):
                radius = float(dist[b, -1]) * (1.0 + 1e-9)
                ball = np.asarray(self._tree.query_ball_point(qb, radius), dtype=np.int64)
                cand_b = ball[ball != row]
                ids_b, km_b = canonical_topk(cand_b, xyz_distance_km(self._xyz[cand_b], qb), k)
            ids[b], km[b] = ids_b[:k], km_b[:k]
        return ids, km

    def query(self, poi_id: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(ids, distances_km) of the k nearest POIs to ``poi_id``,
        excluding the query POI, in canonical ``(distance, id)`` order:
        the one-anchor case of :meth:`_knn`."""
        ids, km = self._knn(self._rows_of([poi_id]), k)
        return ids[0] + self.offset, km[0]

    #: The name the negative sampler's pool builds call.
    query_canonical = query

    def pool(self, poi_id: int, k: int) -> np.ndarray:
        """The ids of :meth:`query_canonical` ``(poi_id, k)``, memoized.

        A pool is a pure function of the static catalogue, so every
        consumer of this index shares one bounded LRU keyed by
        ``(poi_id, k)`` and owner-tagged by ``poi_id``: a training call
        reuses the pools an earlier call on the same dataset built.
        The returned array is shared and read-only.  The LRU takes no
        lock, so callers over one index must not run from concurrent
        threads (forked workers get their own copy).
        """
        key = (poi_id, k)
        ids = self.pools.get(key)
        if ids is None:
            ids, _ = self.query_canonical(poi_id, k)
            ids.flags.writeable = False
            self.pools.put(key, ids, owner=poi_id)
        return ids

    def nearest_excluding(self, poi_id, k: int, exclude=None):
        """The k nearest POI ids to ``poi_id`` not in ``exclude``.

        Implements the evaluation-candidate retrieval: nearest 100
        *previously unvisited* POIs around the target.

        Batched form: ``poi_id`` a sequence of anchors and ``exclude``
        an aligned sequence of sets (None entries, or None for all, mean
        no exclusions) returns one array per anchor, each equal to its
        single-anchor call, from one tree query.
        """
        single = np.ndim(poi_id) == 0
        anchors = [poi_id] if single else list(poi_id)
        if single:
            excludes = [exclude]
        else:
            excludes = [None] * len(anchors) if exclude is None else list(exclude)
        if len(excludes) != len(anchors):
            raise ValueError(
                f"exclude must align with the anchors: {len(excludes)} != {len(anchors)}"
            )
        if not anchors:
            return []
        excludes = [ex or set() for ex in excludes]
        # A window of k + |exclude| + 1 ids keeps at least k + 1 ids
        # that are not excluded (or is the whole catalogue), so the
        # widest row's window serves every row of the batch.
        window = min(k + 1 + max(map(len, excludes)), len(self.coords) - 1)
        ids, _ = self._knn(self._rows_of(anchors), window)
        found = [
            np.array([p for p in row if p not in ex][:k], dtype=np.int64)
            for row, ex in zip((ids + self.offset).tolist(), excludes)
        ]
        return found[0] if single else found
