"""Per-instance HR/NDCG vectors and a paired-bootstrap significance test.

The paper reports mean HR@k and NDCG@k only; this is the statistical
machinery to decide whether a Table III delta is real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class BootstrapResult:
    """Outcome of a paired bootstrap comparison of two systems."""

    mean_delta: float
    ci_low: float
    ci_high: float
    p_value: float          # two-sided: P(delta sign flips)
    num_samples: int

    @property
    def significant(self) -> bool:
        """True when the 95% confidence interval excludes zero."""
        return self.ci_low > 0 or self.ci_high < 0


def paired_bootstrap(
    metric_a: np.ndarray,
    metric_b: np.ndarray,
    num_samples: int = 2000,
    *,
    rng: np.random.Generator,
) -> BootstrapResult:
    """Paired bootstrap over per-instance metric values.

    ``metric_a``/``metric_b`` are per-evaluation-instance scores (e.g.
    the 0/1 hit indicator or per-instance NDCG) for two systems on the
    *same* instances.  Returns the bootstrap distribution of
    mean(a) − mean(b).
    """
    a = np.asarray(metric_a, dtype=np.float64)
    b = np.asarray(metric_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("metric arrays must be equal-length 1-D")
    if a.size == 0:
        raise ValueError("no instances to bootstrap")
    delta = a - b
    idx = rng.integers(0, a.size, size=(num_samples, a.size))
    samples = delta[idx].mean(axis=1)
    observed = float(delta.mean())
    sign_flips = float(np.mean(samples <= 0) if observed > 0 else np.mean(samples >= 0))
    return BootstrapResult(
        mean_delta=observed,
        ci_low=float(np.percentile(samples, 2.5)),
        ci_high=float(np.percentile(samples, 97.5)),
        p_value=min(1.0, 2.0 * sign_flips),
        num_samples=num_samples,
    )


def per_instance_hits(ranks: np.ndarray, k: int) -> np.ndarray:
    """0/1 hit indicator per instance — bootstrap-ready HR@k."""
    return (np.asarray(ranks) <= k).astype(np.float64)


def per_instance_ndcg(ranks: np.ndarray, k: int) -> np.ndarray:
    """Per-instance NDCG@k — bootstrap-ready."""
    ranks = np.asarray(ranks, dtype=np.float64)
    return np.where(ranks <= k, 1.0 / np.log2(ranks + 1.0), 0.0)
