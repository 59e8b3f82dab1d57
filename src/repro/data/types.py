"""Core data types: check-ins, per-user sequences, and datasets.

Conventions used across the repository
--------------------------------------
- POI ids are contiguous integers ``1..num_pois``; id ``0`` is the
  padding POI (the paper's zero-encoded "padding" check-in).
- Timestamps are float64 unix seconds; helper properties expose hours
  and days since the dataset epoch.
- Coordinates are (lat, lon) degrees; ``poi_coords[0]`` is (0, 0) and
  never used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

import numpy as np

PAD_POI = 0

SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0


@dataclass(frozen=True)
class CheckIn:
    """One check-in: user ``u`` visited POI ``p`` located at ``g`` at time ``t``
    (Definition 1 of the paper)."""

    user: int
    poi: int
    lat: float
    lon: float
    timestamp: float


@dataclass
class UserSequence:
    """A user's chronologically ordered check-in history (Definition 2)."""

    user: int
    pois: np.ndarray       # (m,) int64, values in 1..num_pois
    times: np.ndarray      # (m,) float64 unix seconds, non-decreasing

    def __post_init__(self):
        self.pois = np.asarray(self.pois, dtype=np.int64)
        self.times = np.asarray(self.times, dtype=np.float64)
        if self.pois.shape != self.times.shape or self.pois.ndim != 1:
            raise ValueError("pois and times must be equal-length 1-D arrays")
        if not np.isfinite(self.times).all():
            raise ValueError(f"user {self.user}: timestamps must be finite")
        if len(self.times) > 1 and (np.diff(self.times) < 0).any():
            raise ValueError(f"user {self.user}: timestamps must be non-decreasing")
        if (self.pois == PAD_POI).any():
            raise ValueError(f"user {self.user}: POI id 0 is reserved for padding")

    def __len__(self) -> int:
        return len(self.pois)


@dataclass
class CheckInDataset:
    """A full LBSN dataset: POI catalogue plus per-user sequences."""

    name: str
    poi_coords: np.ndarray                    # (num_pois + 1, 2); row 0 = padding
    sequences: Dict[int, UserSequence] = field(default_factory=dict)

    def __post_init__(self):
        self.poi_coords = np.asarray(self.poi_coords, dtype=np.float64)
        if self.poi_coords.ndim != 2 or self.poi_coords.shape[1] != 2:
            raise ValueError(f"poi_coords must be (n, 2), got {self.poi_coords.shape}")

    # ------------------------------------------------------------------
    @property
    def num_users(self) -> int:
        return len(self.sequences)

    @property
    def num_pois(self) -> int:
        return len(self.poi_coords) - 1

    @property
    def num_checkins(self) -> int:
        return sum(len(s) for s in self.sequences.values())

    @property
    def avg_seq_length(self) -> float:
        if not self.sequences:
            return 0.0
        return self.num_checkins / self.num_users

    @property
    def sparsity(self) -> float:
        """1 − (observed user-POI interactions / user×POI matrix size)."""
        if not self.sequences or self.num_pois == 0:
            return 1.0
        interacted = sum(
            len(np.unique(s.pois)) for s in self.sequences.values()
        )
        return 1.0 - interacted / (self.num_users * self.num_pois)

    # ------------------------------------------------------------------
    def users(self) -> List[int]:
        return sorted(self.sequences)

    def iter_checkins(self) -> Iterator[CheckIn]:
        for user in self.users():
            seq = self.sequences[user]
            for poi, t in zip(seq.pois, seq.times):
                lat, lon = self.poi_coords[poi]
                yield CheckIn(user=user, poi=int(poi), lat=lat, lon=lon, timestamp=float(t))

    def coords_of(self, pois: np.ndarray) -> np.ndarray:
        """Vectorized POI id -> (lat, lon); padding maps to (0, 0)."""
        return self.poi_coords[np.asarray(pois, dtype=np.int64)]

    def spatial_index(self):
        """Shared KD-tree index over the POI catalogue (built lazily,
        once per dataset).

        Training negatives, evaluation candidate retrieval and serving
        slates all search the same static catalogue; routing them
        through this handle means one index build per dataset instead
        of one per consumer.
        """
        from ..geo import grid  # repro-lint: disable=REPRO-HOTIMPORT -- breaks the geo<->data import cycle; consumers hold the returned handle

        # Called through the module so a wrapper installed on
        # ``grid.build_spatial_index`` (the benchmark times it) sees it.
        if "_spatial_index" not in self.__dict__:
            self._spatial_index = grid.build_spatial_index(self.poi_coords[1:], offset=1)
        return self._spatial_index

    def poi_visit_counts(self) -> np.ndarray:
        """(num_pois + 1,) visit frequency per POI id (index 0 unused)."""
        counts = np.zeros(self.num_pois + 1, dtype=np.int64)
        for seq in self.sequences.values():
            np.add.at(counts, seq.pois, 1)
        return counts

    def statistics(self) -> Dict[str, float]:
        """The Table II summary row for this dataset."""
        return {
            "users": self.num_users,
            "pois": self.num_pois,
            "checkins": self.num_checkins,
            "sparsity": round(self.sparsity, 4),
            "avg_seq_length": round(self.avg_seq_length, 1),
        }


def dataset_from_checkins(name: str, checkins: List[CheckIn]) -> CheckInDataset:
    """Assemble a :class:`CheckInDataset` from a flat check-in list.

    POIs are re-indexed to contiguous ids 1..P ordered by first
    appearance; coordinates are taken from the first check-in at each POI.
    """
    poi_map: Dict[int, int] = {}
    coords: List[Tuple[float, float]] = [(0.0, 0.0)]
    per_user: Dict[int, List[Tuple[float, int]]] = {}
    for c in checkins:
        if c.poi not in poi_map:
            poi_map[c.poi] = len(coords)
            coords.append((c.lat, c.lon))
        per_user.setdefault(c.user, []).append((c.timestamp, poi_map[c.poi]))

    sequences = {}
    for user, events in per_user.items():
        events.sort(key=lambda e: e[0])
        times = np.array([e[0] for e in events], dtype=np.float64)
        pois = np.array([e[1] for e in events], dtype=np.int64)
        sequences[user] = UserSequence(user=user, pois=pois, times=times)
    return CheckInDataset(name=name, poi_coords=np.array(coords), sequences=sequences)
