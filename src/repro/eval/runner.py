"""High-level experiment runner: dataset -> model -> metrics.

One call trains a named recommender on a named dataset under the
paper's protocol and returns a :class:`MetricReport`.  The Table III /
Table IV / Fig. 8 benchmarks are thin loops over this function.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from ..baselines.factory import make_recommender
from ..core.config import STiSANConfig, TrainConfig
from ..data.negatives import EvalCandidateRetriever
from ..data.sequences import partition
from ..data.types import CheckInDataset
from .metrics import MetricReport, average_reports
from .protocol import evaluate


@dataclass
class ExperimentConfig:
    """Everything needed to run one (dataset, model) cell."""

    max_len: int = 32
    dim: int = 48
    num_candidates: int = 100
    train: TrainConfig = field(default_factory=TrainConfig)
    stisan_config: Optional[STiSANConfig] = None
    seed: int = 0


def run_experiment(
    name: str,
    dataset: CheckInDataset,
    config: Optional[ExperimentConfig] = None,
    retriever: Optional[EvalCandidateRetriever] = None,
    model_overrides: Optional[dict] = None,
) -> MetricReport:
    """Train ``name`` on ``dataset`` and evaluate with the 101-candidate
    protocol.  Returns the metric report."""
    config = config or ExperimentConfig()
    train_examples, eval_examples = partition(dataset, n=config.max_len)
    model = make_recommender(
        name,
        dataset,
        max_len=config.max_len,
        dim=config.dim,
        seed=config.seed,
        stisan_config=config.stisan_config,
        **(model_overrides or {}),
    )
    model.fit(dataset, train_examples, config.train)
    return evaluate(
        model,
        dataset,
        eval_examples,
        num_candidates=config.num_candidates,
        retriever=retriever,
    )


def run_rounds(
    name: str,
    dataset: CheckInDataset,
    config: Optional[ExperimentConfig] = None,
    rounds: int = 1,
    retriever: Optional[EvalCandidateRetriever] = None,
    model_overrides: Optional[dict] = None,
) -> MetricReport:
    """The paper's repeated-rounds protocol: average over ``rounds``
    independent seeds."""
    config = config or ExperimentConfig()
    reports: List[MetricReport] = []
    for r in range(rounds):
        cfg = replace(
            config,
            train=replace(config.train, seed=config.train.seed + r),
            seed=config.seed + r,
        )
        reports.append(
            run_experiment(name, dataset, cfg, retriever=retriever, model_overrides=model_overrides)
        )
    return average_reports(reports)


def format_table(results: Dict[str, Dict[str, MetricReport]], models: List[str]) -> str:
    """Render a Table III-style grid: rows = models, columns = datasets."""
    datasets = list(results)
    header = f"{'model':12s}" + "".join(
        f" | {d:>34s}" for d in datasets
    )
    sub = f"{'':12s}" + " | ".join(
        [" " * 0 + f"{'HR@5':>7s} {'N@5':>7s} {'HR@10':>8s} {'N@10':>8s}" for _ in datasets]
    )
    lines = [header, " " + sub]
    for m in models:
        cells = []
        for d in datasets:
            r = results[d].get(m)
            if r is None:
                cells.append(" " * 34)
            else:
                cells.append(
                    f"{r.hr5:7.4f} {r.ndcg5:7.4f} {r.hr10:8.4f} {r.ndcg10:8.4f}"
                )
        lines.append(f"{m:12s} | " + " | ".join(cells))
    return "\n".join(lines)
