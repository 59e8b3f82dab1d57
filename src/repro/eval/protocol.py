"""The paper's evaluation protocol: rank the held-out target among its
100 nearest previously-unvisited POIs and report HR/NDCG@{5,10}."""

from __future__ import annotations

from typing import List, Optional, Protocol

import numpy as np

from ..data.negatives import EvalCandidateRetriever
from ..data.sequences import EvalExample
from ..data.types import CheckInDataset
from ..nn.tensor import no_grad
from .metrics import MetricReport, report_from_ranks, target_ranks


class CandidateScorer(Protocol):
    """Anything that can score candidate slates given a source sequence.

    Both STiSAN and every baseline implement this protocol, which is
    what makes Table III a single loop over models.
    """

    def score_candidates(
        self, src: np.ndarray, times: np.ndarray, candidates: np.ndarray
    ) -> np.ndarray:
        ...  # pragma: no cover


def evaluate(
    model: CandidateScorer,
    dataset: CheckInDataset,
    eval_examples: List[EvalExample],
    num_candidates: int = 100,
    batch_size: int = 64,
    retriever: Optional[EvalCandidateRetriever] = None,
) -> MetricReport:
    """Run the 101-candidate ranking protocol over all eval instances."""
    if not eval_examples:
        raise ValueError("no evaluation examples")
    retriever = retriever or EvalCandidateRetriever(dataset, num_candidates=num_candidates)

    all_ranks = []
    with no_grad():
        for start in range(0, len(eval_examples), batch_size):
            chunk = eval_examples[start:start + batch_size]
            src = np.stack([e.src_pois for e in chunk])
            times = np.stack([e.src_times for e in chunk])
            slates = retriever.candidates(
                [e.user for e in chunk], [e.target for e in chunk]
            )
            scores = model.score_candidates(src, times, slates)
            all_ranks.extend(target_ranks(scores, target_index=0))
    return report_from_ranks(all_ranks)


def evaluate_full_catalogue(
    model: CandidateScorer,
    dataset: CheckInDataset,
    eval_examples: List[EvalExample],
    batch_size: int = 32,
    exclude_visited: bool = True,
) -> MetricReport:
    """Unsampled evaluation: rank the target against the *whole* POI
    catalogue instead of 100 sampled negatives.

    Krichene & Rendle (KDD 2020) — cited by the paper — show sampled
    metrics can reorder systems; this protocol is the bias-free
    reference (and is what production re-ranking ultimately faces).
    ``exclude_visited`` removes the user's previously visited POIs from
    the competition, matching the "previously unvisited" candidate rule.
    """
    if not eval_examples:
        raise ValueError("no evaluation examples")
    catalogue = np.arange(1, dataset.num_pois + 1, dtype=np.int64)
    visited = {u: set(map(int, s.pois)) for u, s in dataset.sequences.items()}

    all_ranks = []
    with no_grad():
        for start in range(0, len(eval_examples), batch_size):
            chunk = eval_examples[start:start + batch_size]
            src = np.stack([e.src_pois for e in chunk])
            times = np.stack([e.src_times for e in chunk])
            slates = np.stack([
                np.concatenate([[e.target], catalogue[catalogue != e.target]])
                for e in chunk
            ])
            scores = model.score_candidates(src, times, slates)
            if exclude_visited:
                for i, e in enumerate(chunk):
                    banned = visited.get(e.user, set()) - {int(e.target)}
                    if banned:
                        mask = np.isin(slates[i], list(banned))
                        scores[i, mask] = -np.inf
            all_ranks.extend(target_ranks(scores, target_index=0))
    return report_from_ranks(all_ranks)
