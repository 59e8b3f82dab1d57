"""``repro.core`` — the paper's contribution: TAPE, the spatial-temporal
relation matrix, IAAB, TAAD and the assembled STiSAN recommender."""

from .breaker import CircuitBreaker
from .cache import CacheStats, LRUCache, ServingCaches
from .checkpoint import TrainerCheckpoint, TrainProgress, collect_module_rngs
from .config import PAPER_EPOCHS, PAPER_TEMPERATURES, STiSANConfig, TrainConfig
from .early_stopping import EarlyStopping, validation_split
from .service import Recommendation, RecommendationService, ServiceHealth, UserSession
from .geo_encoder import GeographyEncoder
from .iaab import IntervalAwareAttentionBlock, IntervalAwareAttentionLayer
from .loss import weighted_bce_loss, weighted_bce_loss_sharded
from .relation import (
    RelationConfig,
    build_relation_matrix,
    build_relation_matrix_cached,
    relation_row_key,
    scaled_relation_bias,
)
from .stisan import STiSAN
from .taad import TargetAwareAttentionDecoder, preference_scores, step_causal_mask
from .tape import (
    TimeAwarePositionEncoder,
    VanillaPositionEncoder,
    sinusoid_table,
    time_aware_positions,
)
from .trainer import TrainResult, train_stisan

__all__ = [
    "STiSANConfig",
    "TrainConfig",
    "PAPER_TEMPERATURES",
    "PAPER_EPOCHS",
    "TimeAwarePositionEncoder",
    "VanillaPositionEncoder",
    "sinusoid_table",
    "time_aware_positions",
    "RelationConfig",
    "build_relation_matrix",
    "build_relation_matrix_cached",
    "relation_row_key",
    "scaled_relation_bias",
    "GeographyEncoder",
    "IntervalAwareAttentionBlock",
    "IntervalAwareAttentionLayer",
    "TargetAwareAttentionDecoder",
    "preference_scores",
    "step_causal_mask",
    "weighted_bce_loss",
    "weighted_bce_loss_sharded",
    "STiSAN",
    "train_stisan",
    "TrainResult",
    "EarlyStopping",
    "validation_split",
    "RecommendationService",
    "Recommendation",
    "UserSession",
    "ServiceHealth",
    "CircuitBreaker",
    "TrainerCheckpoint",
    "TrainProgress",
    "collect_module_rngs",
    "CacheStats",
    "LRUCache",
    "ServingCaches",
]
