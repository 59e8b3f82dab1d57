"""``repro.baselines`` — the twelve Table III competitors plus the
STiSAN wrapper, all behind one :class:`SequentialRecommender` interface.

Importing this package populates the registry.
"""

from .base import (
    NeuralRecommender,
    SequentialRecommender,
    last_real_positions,
    register,
    registry,
)
from .bert4rec import Bert4Rec
from .bpr import BPRMF, training_pairs, training_transitions
from .caser import Caser
from .factory import TABLE3_MODELS, make_recommender
from .fpmc_lr import FPMCLR
from .geosan import GeoSAN
from .gru4rec import GRU4Rec
from .pop import Popularity
from .prme_g import PRMEG
from .sasrec import SASRec
from .stan import STAN
from .stgn import STGN
from .stisan_wrapper import STiSANRecommender
from .tisasrec import TiSASRec

__all__ = [
    "SequentialRecommender",
    "NeuralRecommender",
    "register",
    "registry",
    "last_real_positions",
    "make_recommender",
    "TABLE3_MODELS",
    "Popularity",
    "BPRMF",
    "FPMCLR",
    "PRMEG",
    "GRU4Rec",
    "Caser",
    "STGN",
    "SASRec",
    "Bert4Rec",
    "TiSASRec",
    "GeoSAN",
    "STAN",
    "STiSANRecommender",
    "training_pairs",
    "training_transitions",
]
