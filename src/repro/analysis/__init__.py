"""``repro.analysis`` — interpretability and motivation studies
(Fig. 2 spatial-correlation histograms, Figs. 5/7 attention studies)."""

from .heatmaps import (
    AttentionStudy,
    attention_study,
    average_attention,
    near_poi_attention_mass,
    successive_attention_similarity,
)
from .spatial_stats import (
    SpatialCorrelationHistogram,
    strong_spatial_correlation_histogram,
    tail_concentration,
)
from .attention_vs_relation import (
    OverlapReport,
    attention_relation_overlap,
    bhattacharyya,
    dependency_decomposition,
    jensen_shannon,
)
from .render import render_heatmap, render_histogram
from .taad_probe import TaadEntropyReport, attention_entropy, taad_attention_entropy
from .trajectories import (
    UserMobilityStats,
    dataset_mobility_summary,
    radius_of_gyration,
    session_count,
    user_stats,
)

__all__ = [
    "AttentionStudy",
    "attention_study",
    "average_attention",
    "successive_attention_similarity",
    "near_poi_attention_mass",
    "SpatialCorrelationHistogram",
    "strong_spatial_correlation_histogram",
    "tail_concentration",
    "UserMobilityStats",
    "user_stats",
    "dataset_mobility_summary",
    "radius_of_gyration",
    "session_count",
    "OverlapReport",
    "attention_relation_overlap",
    "dependency_decomposition",
    "bhattacharyya",
    "jensen_shannon",
    "render_heatmap",
    "render_histogram",
    "TaadEntropyReport",
    "attention_entropy",
    "taad_attention_entropy",
]
