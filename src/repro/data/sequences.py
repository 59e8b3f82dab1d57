"""Sequence partitioning: train/eval splits, windowing and padding.

The paper's protocol (Section IV-A):

- for evaluation, each user's most recent ``n + 1`` POIs are held out —
  the last check-in is the prediction target, the preceding ``n`` form
  the source sequence;
- everything before the target is training data, split into
  non-overlapping windows of length ``n`` from the end;
- sequences shorter than ``n`` are padded at the *head* with the
  padding POI (id 0), which is encoded as a zero vector downstream.

Training examples follow the SASRec/STiSAN shifted scheme: within a
window, the model at step ``i`` predicts the ``i+1``-th check-in, so a
window of ``n + 1`` check-ins yields aligned (source, target) arrays of
length ``n``.  Consecutive windows share exactly one check-in so that
every check-in (except a user's first) is a target exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .types import PAD_POI, CheckInDataset


@dataclass
class SequenceExample:
    """One training window (already padded to length ``n``)."""

    user: int
    src_pois: np.ndarray    # (n,) int64; PAD_POI marks padding
    src_times: np.ndarray   # (n,) float64; padding carries the first real time
    tgt_pois: np.ndarray    # (n,) int64; PAD_POI where no target exists

    def __post_init__(self):
        n = len(self.src_pois)
        if not (len(self.src_times) == len(self.tgt_pois) == n):
            raise ValueError("src/tgt arrays must share length")


@dataclass
class EvalExample:
    """One held-out evaluation instance."""

    user: int
    src_pois: np.ndarray    # (n,)
    src_times: np.ndarray   # (n,)
    target: int             # ground-truth next POI


def pad_head(values: np.ndarray, n: int, fill) -> np.ndarray:
    """Left-pad ``values`` to length ``n`` with ``fill`` (paper's scheme)."""
    if len(values) > n:
        raise ValueError(f"sequence of length {len(values)} exceeds window {n}")
    if len(values) == n:
        return np.asarray(values).copy()
    pad = np.full(n - len(values), fill, dtype=np.asarray(values).dtype)
    return np.concatenate([pad, values])


def _window_examples(
    user: int, pois: np.ndarray, times: np.ndarray, n: int
) -> List[SequenceExample]:
    """Split one training sequence into shifted (src, tgt) windows."""
    examples: List[SequenceExample] = []
    end = len(pois)
    while end > 1:
        start = max(0, end - (n + 1))
        w_pois = pois[start:end]
        w_times = times[start:end]
        src = pad_head(w_pois[:-1], n, PAD_POI)
        tgt = pad_head(w_pois[1:], n, PAD_POI)
        src_t = pad_head(w_times[:-1], n, w_times[0])
        examples.append(
            SequenceExample(user=user, src_pois=src, src_times=src_t, tgt_pois=tgt)
        )
        if start == 0:
            break
        end = start + 1
    return examples


def _last_new_poi_index(pois: np.ndarray) -> int:
    """Index of the last first-time visit in ``pois`` (or -1).

    The paper evaluates on "the last previously unvisited POI" — the
    most recent check-in at a POI the user had never visited before.
    """
    seen = set()
    last = -1
    for i, poi in enumerate(pois):
        p = int(poi)
        if p not in seen:
            last = i
            seen.add(p)
    return last


def partition(
    dataset: CheckInDataset, n: int, new_poi_target: bool = True
) -> Tuple[List[SequenceExample], List[EvalExample]]:
    """Split a dataset into training windows and per-user eval instances.

    ``new_poi_target`` selects the paper's protocol: the evaluation
    target is the user's most recent *first-time* visit (the last
    previously unvisited POI), with everything before it as training
    data.  Set it False for the simpler last-check-in protocol.

    Users whose usable history is too short to both train and evaluate
    (fewer than 3 check-ins up to the target) are skipped.
    """
    if n < 2:
        raise ValueError("window length n must be >= 2")
    train: List[SequenceExample] = []
    evaluation: List[EvalExample] = []
    for user in dataset.users():
        seq = dataset.sequences[user]
        if len(seq) < 3:
            continue
        if new_poi_target:
            t_idx = _last_new_poi_index(seq.pois)
            if t_idx < 2:
                continue
        else:
            t_idx = len(seq) - 1
        # Held-out evaluation: the target check-in.
        target = int(seq.pois[t_idx])
        hist_pois = seq.pois[:t_idx]
        hist_times = seq.times[:t_idx]
        src_pois = pad_head(hist_pois[-n:], n, PAD_POI)
        src_times = pad_head(hist_times[-n:], n, hist_times[max(0, len(hist_times) - n)])
        evaluation.append(
            EvalExample(user=user, src_pois=src_pois, src_times=src_times, target=target)
        )
        # Training windows over everything before the target.
        train.extend(_window_examples(user, hist_pois, hist_times, n))
    return train, evaluation
