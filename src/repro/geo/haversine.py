"""Great-circle distance — the paper's ``Haversine(g_i, g_j)`` (Eq. 4)."""

from __future__ import annotations

import numpy as np

EARTH_RADIUS_KM = 6371.0088  # mean Earth radius


def haversine(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Distance in kilometres between (lat1, lon1) and (lat2, lon2).

    Accepts scalars or broadcastable arrays of degrees; vectorized.
    """
    lat1, lon1, lat2, lon2 = (np.radians(np.asarray(x, dtype=np.float64)) for x in (lat1, lon1, lat2, lon2))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
    # Clamp to guard against floating-point overshoot at antipodes.
    a = np.clip(a, 0.0, 1.0)
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(a))


def pairwise_haversine(coords_a: np.ndarray, coords_b: np.ndarray | None = None) -> np.ndarray:
    """All-pairs distance matrix in km.

    ``coords_a``: (n, 2) array of (lat, lon) degrees; ``coords_b``
    defaults to ``coords_a``.  Returns (n, m).
    """
    coords_a = np.asarray(coords_a, dtype=np.float64)
    coords_b = coords_a if coords_b is None else np.asarray(coords_b, dtype=np.float64)
    for coords in (coords_a, coords_b):
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError(f"expected (n, 2) coords, got {coords.shape}")
    return haversine(
        coords_a[:, None, 0], coords_a[:, None, 1],
        coords_b[None, :, 0], coords_b[None, :, 1],
    )
