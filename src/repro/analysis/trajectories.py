"""Mobility / trajectory statistics over check-in datasets.

These quantify the structural properties the synthetic generator is
supposed to reproduce (and that the paper's motivation leans on):
spatial clustering, bursty inter-check-in times, session structure and
the exploration/return split.  They also back the Fig. 5(a) style
"time intervals between successive check-ins" visualization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..data.types import SECONDS_PER_HOUR, CheckInDataset
from ..geo.haversine import haversine


@dataclass
class UserMobilityStats:
    """Per-user trajectory summary."""

    user: int
    num_checkins: int
    num_unique_pois: int
    radius_of_gyration_km: float
    mean_hop_km: float
    median_gap_hours: float
    exploration_rate: float     # fraction of check-ins at first-visit POIs
    num_sessions: int           # maximal runs with gaps < session_gap


def radius_of_gyration(coords: np.ndarray) -> float:
    """RMS haversine distance (km) from the trajectory's centroid —
    the standard human-mobility spread measure (Gonzalez et al.)."""
    coords = np.asarray(coords, dtype=np.float64)
    if len(coords) == 0:
        return 0.0
    center_lat = coords[:, 0].mean()
    center_lon = coords[:, 1].mean()
    d = haversine(coords[:, 0], coords[:, 1], center_lat, center_lon)
    return float(np.sqrt((d ** 2).mean()))


def session_count(times: np.ndarray, session_gap_hours: float = 12.0) -> int:
    """Number of sessions: maximal runs of gaps under the threshold."""
    times = np.asarray(times, dtype=np.float64)
    if len(times) == 0:
        return 0
    gaps = np.diff(times) / SECONDS_PER_HOUR
    return int(1 + (gaps >= session_gap_hours).sum())


def user_stats(
    dataset: CheckInDataset, user: int, session_gap_hours: float = 12.0
) -> UserMobilityStats:
    """Compute the mobility summary for one user."""
    seq = dataset.sequences[user]
    coords = dataset.poi_coords[seq.pois]
    hops = haversine(coords[:-1, 0], coords[:-1, 1], coords[1:, 0], coords[1:, 1]) \
        if len(seq) > 1 else np.array([])
    gaps = np.diff(seq.times) / SECONDS_PER_HOUR if len(seq) > 1 else np.array([])
    seen: set = set()
    first_visits = 0
    for poi in seq.pois:
        if int(poi) not in seen:
            first_visits += 1
            seen.add(int(poi))
    return UserMobilityStats(
        user=user,
        num_checkins=len(seq),
        num_unique_pois=len(seen),
        radius_of_gyration_km=radius_of_gyration(coords),
        mean_hop_km=float(hops.mean()) if hops.size else 0.0,
        median_gap_hours=float(np.median(gaps)) if gaps.size else 0.0,
        exploration_rate=first_visits / len(seq) if len(seq) else 0.0,
        num_sessions=session_count(seq.times, session_gap_hours),
    )


def dataset_mobility_summary(
    dataset: CheckInDataset, session_gap_hours: float = 12.0
) -> Dict[str, float]:
    """Mean mobility statistics over every user in a dataset."""
    stats: List[UserMobilityStats] = [
        user_stats(dataset, u, session_gap_hours) for u in dataset.users()
    ]
    if not stats:
        return {}
    return {
        "users": len(stats),
        "mean_radius_of_gyration_km": float(np.mean([s.radius_of_gyration_km for s in stats])),
        "mean_hop_km": float(np.mean([s.mean_hop_km for s in stats])),
        "median_gap_hours": float(np.median([s.median_gap_hours for s in stats])),
        "mean_exploration_rate": float(np.mean([s.exploration_rate for s in stats])),
        "mean_sessions_per_user": float(np.mean([s.num_sessions for s in stats])),
    }
