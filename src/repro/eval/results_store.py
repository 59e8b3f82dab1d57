"""Persistence for experiment results.

Benchmarks dump their measured numbers as JSON so EXPERIMENTS.md (and
regression tooling) can reference them without re-running hours of
training.  The store is append-friendly: one JSON file per experiment,
each holding named rows of metric dictionaries plus free-form metadata.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, Optional

from .metrics import MetricReport


@dataclass
class ExperimentRecord:
    """One experiment's results: {row_name: {metric: value}}."""

    experiment: str
    rows: Dict[str, Dict[str, float]] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)
    created_at: str = ""

    def add(self, name: str, report: MetricReport | Dict[str, float]) -> None:
        """Add a row from a MetricReport or a plain metric dict."""
        if isinstance(report, MetricReport):
            self.rows[name] = report.as_dict()
        else:
            self.rows[name] = {k: float(v) for k, v in report.items()}

    def best_row(self, metric: str = "NDCG@10") -> Optional[str]:
        """Name of the row maximizing ``metric`` (None if empty)."""
        candidates = {n: r[metric] for n, r in self.rows.items() if metric in r}
        if not candidates:
            return None
        return max(candidates, key=candidates.get)


class ResultsStore:
    """Directory of experiment JSON files."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, experiment: str) -> Path:
        safe = experiment.replace("/", "_").replace(" ", "_")
        return self.root / f"{safe}.json"

    def save(self, record: ExperimentRecord) -> Path:
        record.created_at = datetime.now(timezone.utc).isoformat()  # repro-lint: disable=REPRO-DET-CLOCK -- archival metadata (when a result row was produced); not part of any metric and excluded from result comparisons
        path = self._path(record.experiment)
        payload = {
            "experiment": record.experiment,
            "created_at": record.created_at,
            "meta": record.meta,
            "rows": record.rows,
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        return path

    def load(self, experiment: str) -> ExperimentRecord:
        path = self._path(experiment)
        if not path.exists():
            raise FileNotFoundError(f"no stored results for {experiment!r}")
        payload = json.loads(path.read_text())
        return ExperimentRecord(
            experiment=payload["experiment"],
            rows=payload["rows"],
            meta=payload.get("meta", {}),
            created_at=payload.get("created_at", ""),
        )

    def list_experiments(self) -> list:
        return sorted(p.stem for p in self.root.glob("*.json"))

    def compare(
        self, experiment: str, other: ExperimentRecord, metric: str = "NDCG@10"
    ) -> Dict[str, float]:
        """Per-row delta of ``other`` vs the stored record (new − old)."""
        baseline = self.load(experiment)
        deltas = {}
        for name, row in other.rows.items():
            if name in baseline.rows and metric in row and metric in baseline.rows[name]:
                deltas[name] = row[metric] - baseline.rows[name][metric]
        return deltas
