"""The spatial-index build entry point.

The module name is historical: it once also held a quadkey-bucketed
grid index.  The KD-tree :class:`repro.geo.neighbors.PoiIndex` is now
the only spatial index, and :func:`build_spatial_index` is the one
place a catalogue's index is built (through the dataset-level cached
handle :meth:`repro.data.types.CheckInDataset.spatial_index`).
"""

from __future__ import annotations

import numpy as np

from .neighbors import PoiIndex


def build_spatial_index(coords: np.ndarray, offset: int = 1) -> PoiIndex:
    """Build the KD-tree index over ``coords``; row i is POI id ``offset + i``."""
    return PoiIndex(coords, offset=offset)
