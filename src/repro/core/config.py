"""Configuration for STiSAN and its training loop.

``STiSANConfig.paper()`` reproduces the settings of Section IV-D
(d = 256 = 128 POI ⊕ 128 GPS, N = 4 blocks, L = 15 negatives,
lr = 1e-3, dropout = 0.7); ``STiSANConfig.small()`` is a CPU-friendly
configuration used by the tests and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .relation import RelationConfig


@dataclass
class STiSANConfig:
    """Hyper-parameters of the STiSAN model."""

    max_len: int = 100                 # n — maximum sequence length
    poi_dim: int = 128                 # POI embedding dimension
    geo_dim: int = 128                 # GPS encoding dimension
    num_blocks: int = 4                # N — stacked IAABs
    ffn_hidden: int = 512              # d_h > d
    dropout: float = 0.7
    relation: RelationConfig = field(default_factory=RelationConfig)
    quadkey_level: int = 17
    quadkey_ngram: int = 6
    geo_pooling: str = "mean"
    # Ablation switches (Table IV variants).
    use_geo: bool = True               # I.   Remove GE  -> False
    use_tape: bool = True              # II.  Remove TAPE -> False (vanilla PE)
    use_relation: bool = True          # III. Remove IAAB -> False (Eq. 15)
    use_attention: bool = True         # IV.  Remove SA  -> False (Eq. 16)
    use_taad: bool = True              # V.   Remove TAAD -> False (Eq. 17)

    def __post_init__(self):
        if self.max_len < 2:
            raise ValueError("max_len must be >= 2")
        if self.num_blocks < 1:
            raise ValueError("need at least one IAAB")
        if not self.use_relation and not self.use_attention:
            raise ValueError("cannot remove both the relation matrix and self-attention")

    @property
    def dim(self) -> int:
        """Sequence representation dimension d."""
        return self.poi_dim + self.geo_dim if self.use_geo else self.poi_dim

    @classmethod
    def paper(cls, **overrides) -> "STiSANConfig":
        """The paper's full-scale settings."""
        return cls(**overrides)

    @classmethod
    def small(cls, **overrides) -> "STiSANConfig":
        """CPU-scale settings for tests/benchmarks."""
        defaults = dict(
            max_len=32,
            poi_dim=24,
            geo_dim=24,
            num_blocks=2,
            ffn_hidden=64,
            dropout=0.2,
            quadkey_level=14,
            quadkey_ngram=4,
        )
        defaults.update(overrides)
        return cls(**defaults)


@dataclass
class TrainConfig:
    """Training-loop hyper-parameters (Section IV-D)."""

    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 1e-3
    num_negatives: int = 15            # L
    negative_pool: int = 2000          # nearest-neighbour pool for sampling
    temperature: float = 1.0           # T — dataset dependent in the paper
    grad_clip: float = 5.0
    seed: int = 0
    verbose: bool = False
    # Rows of the flattened (b·n) step axis per loss shard; 0 = the
    # unsharded loss.  Sharding keeps the loss head's peak memory flat
    # in batch footprint (gradients stay bitwise identical; see
    # repro.core.loss.weighted_bce_loss_sharded).
    loss_shard_size: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.loss_shard_size < 0:
            raise ValueError(
                f"loss_shard_size must be >= 0, got {self.loss_shard_size}"
            )


#: Per-dataset temperatures from Section IV-D.
PAPER_TEMPERATURES = {
    "gowalla": 1.0,
    "brightkite": 100.0,
    "weeplaces": 100.0,
    "changchun": 500.0,
}

#: Per-dataset epoch counts from Section IV-D.
PAPER_EPOCHS = {
    "gowalla": 35,
    "brightkite": 20,
    "weeplaces": 20,
    "changchun": 20,
}
