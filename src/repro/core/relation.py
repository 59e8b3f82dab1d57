"""Spatial-temporal relation matrix R — Section III-D.

For each source sequence we build a lower-triangular matrix whose entry
``r_ij`` (i >= j) encodes how *related* check-ins i and j are:

    Δt_ij = min(k_t, |t_i - t_j|)            (days)
    Δd_ij = min(k_d, Haversine(g_i, g_j))    (km)          (Eq. 4)
    r̂_ij  = Δt_ij + Δd_ij
    r_ij  = r̂_max − r̂_ij

so *small* spatio-temporal intervals yield *large* relation values.
``r̂_max`` is the maximum over the valid (lower-triangle, non-padding)
entries of the sequence's own matrix.

The paper clips with thresholds ``k_t`` (days) and ``k_d`` (km);
Fig. 9 sweeps k_t ∈ {0,5,10,20} days and k_d ∈ {0,5,10,15} km.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..data.types import SECONDS_PER_DAY
from ..geo.haversine import haversine, pairwise_haversine
from ..obs import REGISTRY
from ..obs import state as _obs


@dataclass(frozen=True)
class RelationConfig:
    """Interval thresholds for the relation matrix."""

    k_t_days: float = 10.0
    k_d_km: float = 15.0

    def __post_init__(self):
        if self.k_t_days < 0 or self.k_d_km < 0:
            raise ValueError("interval thresholds must be non-negative")


def build_relation_matrix(
    times: np.ndarray,
    coords: np.ndarray,
    config: RelationConfig = RelationConfig(),
    pad_mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Build (batched) spatial-temporal relation matrices.

    Parameters
    ----------
    times : (..., n) unix seconds.
    coords : (..., n, 2) degrees (lat, lon) aligned with ``times``.
    pad_mask : optional (..., n) bool, True at padding positions; rows
        and columns touching padding are zeroed.

    Returns
    -------
    (..., n, n) float32, strictly lower-triangular-plus-diagonal; the
    upper triangle is zero (it is masked to −inf downstream anyway).

    Sequences revisit POIs and a batch shares them, so when the U
    distinct coordinates give fewer pairs than the (..., n, n) grid,
    the distances are computed once on a (U, U) table and gathered.
    Every entry goes through the same elementwise operations either
    way, so both paths give the same bits.
    """
    times = np.asarray(times, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape[:-1] != times.shape or coords.shape[-1] != 2:
        raise ValueError(
            f"coords shape {coords.shape} incompatible with times shape {times.shape}"
        )
    n = times.shape[-1]

    points = np.ascontiguousarray(coords).reshape(-1, 2).view(np.complex128)[:, 0]
    distinct, inverse = np.unique(points, return_inverse=True)
    u = distinct.size
    if u * u < times.size * n:
        table = pairwise_haversine(distinct.view(np.float64).reshape(u, 2))
        np.minimum(table, config.k_d_km, out=table)
        inverse = inverse.reshape(times.shape)
        dd_km = table.take(inverse[..., :, None] * u + inverse[..., None, :])
    else:
        dd_km = haversine(
            coords[..., :, None, 0], coords[..., :, None, 1],
            coords[..., None, :, 0], coords[..., None, :, 1],
        )
        np.minimum(dd_km, config.k_d_km, out=dd_km)

    r_hat = times[..., :, None] - times[..., None, :]
    np.abs(r_hat, out=r_hat)
    np.divide(r_hat, SECONDS_PER_DAY, out=r_hat)
    np.minimum(r_hat, config.k_t_days, out=r_hat)
    np.add(r_hat, dd_km, out=r_hat)

    blocked = np.triu(np.ones((n, n), dtype=bool), k=1)
    if pad_mask is not None:
        pad_mask = np.asarray(pad_mask, dtype=bool)
        blocked = blocked | pad_mask[..., :, None] | pad_mask[..., None, :]
    blocked = np.broadcast_to(blocked, r_hat.shape)

    r_max = np.where(blocked, -np.inf, r_hat).max(axis=(-1, -2), keepdims=True)
    r_max[~np.isfinite(r_max)] = 0.0
    relation = np.empty(r_hat.shape, dtype=np.float32)
    np.subtract(r_max, r_hat, out=relation, casting="same_kind")
    np.copyto(relation, 0.0, where=blocked)
    return relation


def relation_row_key(
    times_row: np.ndarray,
    coords_row: np.ndarray,
    config: RelationConfig,
    pad_row: Optional[np.ndarray] = None,
) -> bytes:
    """Content hash of one sequence's relation-matrix inputs.

    Two sequences share a key exactly when their timestamps, coordinates,
    padding pattern and clipping thresholds all match — so a cached
    matrix can never be served for different inputs.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.ascontiguousarray(times_row, dtype=np.float64).tobytes())
    digest.update(np.ascontiguousarray(coords_row, dtype=np.float64).tobytes())
    if pad_row is not None:
        digest.update(np.ascontiguousarray(pad_row, dtype=bool).tobytes())
    digest.update(np.float64(config.k_t_days).tobytes())
    digest.update(np.float64(config.k_d_km).tobytes())
    return digest.digest()


def build_relation_matrix_cached(
    times: np.ndarray,
    coords: np.ndarray,
    config: RelationConfig,
    pad_mask: Optional[np.ndarray],
    cache,
    owners: Optional[Sequence] = None,
) -> np.ndarray:
    """Batched relation matrices with a per-sequence LRU cache.

    Each row of the ``(b, n)`` batch is keyed by :func:`relation_row_key`
    and looked up in ``cache`` (an ``LRUCache``).  The missed rows are
    computed together in one :func:`build_relation_matrix` call, which
    is bitwise identical to computing each alone (every entry is
    elementwise in its inputs and ``r̂_max`` is per row).  A row whose
    key repeats an earlier miss of the same batch is looked up again
    once the misses are stored.  ``owners`` optionally tags row ``i``'s
    entry so a user's check-in can invalidate it.
    """
    times = np.asarray(times, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.float64)
    if times.ndim != 2:
        raise ValueError(f"expected a (b, n) batch, got times shape {times.shape}")
    if owners is not None and len(owners) != times.shape[0]:
        owners = None  # a mismatched tag list is ignored, never misapplied
    pads = None if pad_mask is None else np.asarray(pad_mask, dtype=bool)
    keys = [
        relation_row_key(times[i], coords[i], config, None if pads is None else pads[i])
        for i in range(times.shape[0])
    ]
    rows = [None] * len(keys)
    missed = {}  # key -> the first row that missed it
    repeats = []
    for i, key in enumerate(keys):
        if key in missed:
            repeats.append(i)
        else:
            rows[i] = cache.get(key)
            if rows[i] is None:
                missed[key] = i
    computed = len(missed)
    if missed:
        index = list(missed.values())
        fresh = build_relation_matrix(
            times[index], coords[index], config=config,
            pad_mask=None if pads is None else pads[index],
        )
        for i, matrix in zip(index, fresh):
            # A copy, so an entry does not keep the whole batch alive.
            rows[i] = matrix.copy()
            cache.put(keys[i], rows[i], owner=None if owners is None else owners[i])
    for i in repeats:
        rows[i] = cache.get(keys[i])
        if rows[i] is None:
            rows[i] = rows[missed[keys[i]]]
            cache.put(keys[i], rows[i], owner=None if owners is None else owners[i])
            computed += 1
    if _obs._enabled:
        REGISTRY.counter("repro_relation_rows_total").inc(times.shape[0])
        REGISTRY.counter("repro_relation_rows_computed_total").inc(computed)
    return np.stack(rows)


def causal_attend_mask(pad: np.ndarray) -> np.ndarray:
    """(b, n, n) bool attention mask for (b, n) padding flags: True
    blocks future positions and padding keys.

    A fully-blocked row would make softmax degenerate, so padding query
    rows attend themselves (their outputs are masked anyway).
    """
    n = pad.shape[-1]
    future = np.triu(np.ones((n, n), dtype=bool), k=1)
    mask = future[None, :, :] | pad[:, None, :]
    diag = np.eye(n, dtype=bool)
    return np.where(pad[:, :, None], ~diag[None, :, :], mask)


def scaled_relation_bias(
    relation: np.ndarray, attend_mask: np.ndarray
) -> np.ndarray:
    """Softmax-normalize R over each row's *visible* keys.

    The paper: "we scale R with Softmax before the addition" (Fig. 3).
    ``attend_mask`` is True where attention is blocked (future steps or
    padding); those entries receive zero bias.

    Note the k_t = k_d = 0 degenerate case of Fig. 9: R is constant
    zero, the softmax yields a uniform row, and adding a constant to
    every visible attention logit is a no-op — "actually disabling the
    IAAB", exactly as the paper observes.
    """
    blocked = np.asarray(attend_mask, dtype=bool)
    ex = np.array(relation, dtype=np.float64)
    np.copyto(ex, -np.inf, where=blocked)
    row_max = ex.max(axis=-1, keepdims=True)
    row_max[~np.isfinite(row_max)] = 0.0  # fully-blocked rows
    np.subtract(ex, row_max, out=ex)
    np.exp(ex, out=ex)
    np.copyto(ex, 0.0, where=blocked)
    denom = ex.sum(axis=-1, keepdims=True)
    bias = np.empty(ex.shape, dtype=np.float32)
    np.divide(ex, np.maximum(denom, 1e-12), out=bias, casting="same_kind")
    np.copyto(bias, 0.0, where=~(denom > 0))
    return bias
