"""``repro.data`` — LBSN data substrate: types, synthetic generation,
preprocessing, sequence partitioning, batching and negative sampling."""

from .batching import Batch, BatchIterator
from .io import (
    load_dataset_snapshot,
    read_checkins_csv,
    read_checkins_jsonl,
    save_dataset,
    write_checkins_csv,
    write_checkins_jsonl,
)
from .negatives import (
    EvalCandidateRetriever,
    NearestNegativeSampler,
    UniformNegativeSampler,
)
from .preprocess import PreprocessConfig, filter_cold
from .profiles import (
    DATASET_NAMES,
    PAPER_TABLE2,
    PAPER_TABLE5,
    SPARSITY_LADDER,
    load_dataset,
    profile,
    sparsity_ladder,
)
from .sequences import (
    EvalExample,
    SequenceExample,
    pad_head,
    partition,
)
from .synthetic import World, WorldConfig, build_world, generate_dataset
from .types import (
    PAD_POI,
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    CheckIn,
    CheckInDataset,
    UserSequence,
    dataset_from_checkins,
)

__all__ = [
    "PAD_POI",
    "SECONDS_PER_DAY",
    "SECONDS_PER_HOUR",
    "CheckIn",
    "CheckInDataset",
    "UserSequence",
    "dataset_from_checkins",
    "WorldConfig",
    "World",
    "build_world",
    "generate_dataset",
    "DATASET_NAMES",
    "PAPER_TABLE2",
    "PAPER_TABLE5",
    "SPARSITY_LADDER",
    "profile",
    "load_dataset",
    "sparsity_ladder",
    "PreprocessConfig",
    "filter_cold",
    "SequenceExample",
    "EvalExample",
    "pad_head",
    "partition",
    "NearestNegativeSampler",
    "UniformNegativeSampler",
    "EvalCandidateRetriever",
    "Batch",
    "BatchIterator",
    "read_checkins_csv",
    "write_checkins_csv",
    "read_checkins_jsonl",
    "write_checkins_jsonl",
    "save_dataset",
    "load_dataset_snapshot",
]
