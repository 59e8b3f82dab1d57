"""Map-tile quadkey encoding — the input representation of GeoSAN's
geography encoder (Lian et al., KDD 2020), which STiSAN reuses for its
GPS coordinate encoding.

A (lat, lon) pair is projected to Web-Mercator tile coordinates at a
fixed zoom ``level``; interleaving the x/y tile bits yields a base-4
string (the *quadkey*).  Nearby locations share long quadkey prefixes,
which is the property the n-gram geography encoder exploits.

:func:`quadkey_ngram_ids` builds a whole catalogue's position-tagged
n-gram ids straight from the integer tile bits.  The string helpers
(:func:`latlon_to_quadkey`, :func:`quadkey_to_ngrams`,
:class:`QuadkeyVocab`) spell out the same encoding one POI at a time
and serve as its readable reference.

Tiles here are features, not a spatial index: neighbour search is the
KD-tree in :mod:`repro.geo.neighbors`.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

MIN_LATITUDE = -85.05112878
MAX_LATITUDE = 85.05112878
MIN_LONGITUDE = -180.0
MAX_LONGITUDE = 180.0


def latlon_to_tile_xy(lat, lon, level: int = 17):
    """Vectorized (lat, lon) -> Web-Mercator tile coordinates.

    Accepts scalars or same-shape arrays; returns int64 ``(tile_x,
    tile_y)`` of the same shape.  Latitudes beyond the Mercator clamp
    (poles) land in the edge tile rows, longitudes are clamped to
    [-180, 180]; NaN or infinite input raises ``ValueError``.  Every
    tile consumer goes through here: :func:`quadkey_ngram_ids` and
    :func:`latlon_to_quadkey`.
    """
    if not 1 <= level <= 23:
        raise ValueError(f"zoom level must be in [1, 23], got {level}")
    lat = np.asarray(lat, dtype=np.float64)
    lon = np.asarray(lon, dtype=np.float64)
    if not (np.isfinite(lat).all() and np.isfinite(lon).all()):
        raise ValueError("coordinates must be finite")
    lat = np.clip(lat, MIN_LATITUDE, MAX_LATITUDE)
    lon = np.clip(lon, MIN_LONGITUDE, MAX_LONGITUDE)

    x = (lon + 180.0) / 360.0
    sin_lat = np.sin(np.radians(lat))
    y = 0.5 - np.log((1.0 + sin_lat) / (1.0 - sin_lat)) / (4.0 * np.pi)

    map_size = 1 << level
    tile_x = np.minimum(np.maximum(x * map_size, 0), map_size - 1).astype(np.int64)
    tile_y = np.minimum(np.maximum(y * map_size, 0), map_size - 1).astype(np.int64)
    return tile_x, tile_y


def _spread_bits(v: np.ndarray) -> np.ndarray:
    """Move bit ``k`` of each (< 2**32) value to bit ``2k``."""
    v = (v | (v << 16)) & 0x0000FFFF0000FFFF
    v = (v | (v << 8)) & 0x00FF00FF00FF00FF
    v = (v | (v << 4)) & 0x0F0F0F0F0F0F0F0F
    v = (v | (v << 2)) & 0x3333333333333333
    return (v | (v << 1)) & 0x5555555555555555


def quadkey_ngram_ids(poi_coords, level: int = 17, n: int = 6) -> Tuple[np.ndarray, int]:
    """Position-tagged quadkey n-gram ids for a catalogue, from tile bits.

    ``poi_coords`` is a ``(P + 1, 2)`` (lat, lon) catalogue whose row 0
    is the padding POI.  Returns ``(ids, vocab_size)``: ``ids`` is an
    int64 ``(P + 1, G)`` matrix with ``G = level - min(n, level) + 1``
    and row 0 all PAD (0); ids 2, 3, ... number the distinct
    (position, n-gram) keys in first-seen row-major order.  A catalogue
    with no real POI gives a ``(len(poi_coords), 1)`` all-PAD matrix and
    vocabulary size 2.

    Equal to ``QuadkeyVocab(n).encode_batch`` over
    :func:`latlon_to_quadkey` strings, with ``vocab_size`` its ``len``.
    A quadkey digit is one x bit plus twice one y bit, so an n-gram's
    base-4 value is a window of the Morton code of the tile bits.  One
    ``np.unique`` per position keeps peak memory at a few
    catalogue-length vectors beside the output; ranking the columns'
    first occurrences by ``row * G + position`` gives the global
    first-seen order.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    coords = np.asarray(poi_coords, dtype=np.float64)
    tile_x, tile_y = latlon_to_tile_xy(coords[1:, 0], coords[1:, 1], level)
    if len(tile_x) == 0:
        return np.zeros((len(coords), 1), dtype=np.int64), 2

    width = min(n, level)
    num_grams = level - width + 1
    # level <= 23, so the Morton code needs at most 46 of int64's bits.
    morton = _spread_bits(tile_x) | (_spread_bits(tile_y) << 1)
    window = (1 << (2 * width)) - 1
    ids = np.zeros((len(coords), num_grams), dtype=np.int64)
    first_seen = []
    vocab = 0
    for pos in range(num_grams):
        grams = (morton >> (2 * (level - pos - width))) & window
        _, first, inverse = np.unique(grams, return_index=True, return_inverse=True)
        ids[1:, pos] = inverse + vocab
        first_seen.append(first * num_grams + pos)
        vocab += len(first)
    rank = np.empty(vocab, dtype=np.int64)
    rank[np.argsort(np.concatenate(first_seen))] = np.arange(2, vocab + 2)
    for pos in range(num_grams):  # per column: a whole-matrix gather doubles the peak
        ids[1:, pos] = rank[ids[1:, pos]]
    return ids, vocab + 2


def latlon_to_quadkey(lat: float, lon: float, level: int = 17) -> str:
    """Encode a GPS coordinate as a quadkey string of length ``level``.

    One POI at a time through strings: the readable reference for
    :func:`quadkey_ngram_ids`.
    """
    tile_x, tile_y = latlon_to_tile_xy(float(lat), float(lon), level)
    tile_x, tile_y = int(tile_x), int(tile_y)

    digits: List[str] = []
    for i in range(level, 0, -1):
        digit = 0
        mask = 1 << (i - 1)
        if tile_x & mask:
            digit += 1
        if tile_y & mask:
            digit += 2
        digits.append(str(digit))
    return "".join(digits)


def quadkey_to_ngrams(quadkey: str, n: int = 6) -> List[str]:
    """Split a quadkey into overlapping character n-grams.

    GeoSAN feeds these n-grams to a small self-attention encoder; we do
    the same in :mod:`repro.core.geo_encoder`.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(quadkey) < n:
        return [quadkey]
    return [quadkey[i:i + n] for i in range(len(quadkey) - n + 1)]


class QuadkeyVocab:
    """Bidirectional mapping between quadkey n-grams and integer ids.

    Id 0 is reserved for padding; unseen n-grams map to id 1 (<unk>).

    With ``position_tagged`` (default), the vocabulary key is the
    (position, gram) pair rather than the bare gram: the same 4 digits
    near the head of a quadkey (a coarse ~city-scale tile) and near its
    tail (a ~street-scale tile) get distinct embeddings, so the
    coarse-to-fine hierarchy survives order-insensitive pooling.
    Models take their ids from :func:`quadkey_ngram_ids`; this class is
    its string-level reference.
    """

    PAD = 0
    UNK = 1

    def __init__(self, n: int = 6, position_tagged: bool = True):
        self.n = n
        self.position_tagged = position_tagged
        self._to_id = {}
        self._frozen = False

    def __len__(self) -> int:
        return len(self._to_id) + 2

    def freeze(self) -> "QuadkeyVocab":
        self._frozen = True
        return self

    def encode(self, quadkey: str) -> List[int]:
        ids = []
        for pos, gram in enumerate(quadkey_to_ngrams(quadkey, self.n)):
            key = (pos, gram) if self.position_tagged else gram
            if key not in self._to_id:
                if self._frozen:
                    ids.append(self.UNK)
                    continue
                self._to_id[key] = len(self._to_id) + 2
            ids.append(self._to_id[key])
        return ids

    def encode_batch(self, quadkeys: List[str]) -> np.ndarray:
        """Encode many quadkeys into a right-padded (len, max_grams) id array."""
        rows = [self.encode(q) for q in quadkeys]
        width = max(len(r) for r in rows)
        out = np.full((len(rows), width), self.PAD, dtype=np.int64)
        for i, row in enumerate(rows):
            out[i, :len(row)] = row
        return out
