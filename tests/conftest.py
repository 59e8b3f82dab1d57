"""Shared fixtures: tiny synthetic datasets reused across test modules."""

import numpy as np
import pytest

from repro.core import TrainConfig
from repro.core.stisan import live_cut
from repro.data import WorldConfig, generate_dataset, partition
from repro.data.preprocess import PreprocessConfig, filter_cold

#: Window width at which most micro-dataset windows carry 8+ columns of
#: head padding, so training steps run trimmed (see ``trimmed_setup``).
TRIMMED_LEN = 32


@pytest.fixture(scope="session")
def tiny_dataset():
    """A small but realistic dataset: ~40 users, ~60 POIs."""
    cfg = WorldConfig(
        num_users=40,
        num_pois=80,
        num_clusters=8,
        avg_seq_length=30.0,
        min_seq_length=12,
    )
    ds = generate_dataset(cfg, seed=123, name="tiny")
    return filter_cold(ds, PreprocessConfig(min_user_checkins=10, min_poi_checkins=3))


@pytest.fixture(scope="session")
def micro_dataset():
    """An even smaller dataset for expensive model tests."""
    cfg = WorldConfig(
        num_users=12,
        num_pois=40,
        num_clusters=5,
        avg_seq_length=20.0,
        min_seq_length=10,
    )
    ds = generate_dataset(cfg, seed=7, name="micro")
    return filter_cold(ds, PreprocessConfig(min_user_checkins=8, min_poi_checkins=2))


@pytest.fixture()
def trimmed_setup(micro_dataset):
    """Windows at which at least one batch's smallest live cut is >= 8,
    checked for every test that uses them.

    A window cut below 8 lowers the cut of the one batch it lands in, so
    with fewer such windows than batches some batch trims in any order.
    """
    train, _ = partition(micro_dataset, n=TRIMMED_LEN)
    config = TrainConfig(epochs=2, batch_size=4, num_negatives=3, seed=11)
    cuts = live_cut(np.stack([e.src_pois for e in train]) == 0)
    num_batches = -(-len(train) // config.batch_size)
    assert np.count_nonzero(cuts < 8) < num_batches
    return micro_dataset, train, config


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
