"""``repro.eval`` — ranking metrics, the 101-candidate evaluation
protocol, analytic FLOPs accounting and the experiment runner."""

from .extra_metrics import (
    BootstrapResult,
    paired_bootstrap,
    per_instance_hits,
    per_instance_ndcg,
)
from .flops import FlopsBreakdown, attention_encoder_flops, compare_sa_iaab, parameter_counts
from .latency import (
    BatchSweepPoint,
    FaultOverheadReport,
    LatencyReport,
    ObsOverheadReport,
    compare_latency,
    format_batch_sweep,
    measure_fault_harness_overhead,
    measure_observability_overhead,
    measure_scoring_latency,
    sweep_service_batches,
)
from .metrics import (
    MetricReport,
    average_reports,
    hit_rate_at_k,
    ndcg_at_k,
    report_from_ranks,
    target_ranks,
)
from .protocol import evaluate, evaluate_full_catalogue
from .results_store import ExperimentRecord, ResultsStore
from .runner import ExperimentConfig, format_table, run_experiment, run_rounds

__all__ = [
    "MetricReport",
    "hit_rate_at_k",
    "ndcg_at_k",
    "target_ranks",
    "report_from_ranks",
    "average_reports",
    "evaluate",
    "evaluate_full_catalogue",
    "FlopsBreakdown",
    "attention_encoder_flops",
    "compare_sa_iaab",
    "parameter_counts",
    "ExperimentConfig",
    "run_experiment",
    "run_rounds",
    "format_table",
    "BootstrapResult",
    "paired_bootstrap",
    "per_instance_hits",
    "per_instance_ndcg",
    "LatencyReport",
    "measure_scoring_latency",
    "compare_latency",
    "BatchSweepPoint",
    "sweep_service_batches",
    "format_batch_sweep",
    "ObsOverheadReport",
    "measure_observability_overhead",
    "FaultOverheadReport",
    "measure_fault_harness_overhead",
    "ExperimentRecord",
    "ResultsStore",
]
