"""The TAAD attention-entropy probe (``repro.analysis.taad_probe``)."""

import numpy as np
import pytest

from repro.analysis import attention_entropy, taad_attention_entropy
from repro.core import STiSAN, STiSANConfig
from repro.data import partition


def _encoded(rng, b=3, n=7, d=8):
    encoded = rng.standard_normal((b, n, d))
    visible = np.ones((b, n), dtype=bool)
    visible[0, :3] = False  # head padding
    visible[1, :5] = False
    return encoded, visible


def test_zero_candidates_read_exactly_uniform():
    rng = np.random.default_rng(0)
    encoded, visible = _encoded(rng)
    frac, last = attention_entropy(np.zeros((3, 4, 8)), encoded, visible)
    assert np.all(frac == 1.0)
    np.testing.assert_allclose(last, np.broadcast_to(1.0 / visible.sum(axis=1)[:, None], (3, 4)))


def test_candidate_aligned_with_one_position_reads_well_below_uniform():
    rng = np.random.default_rng(1)
    encoded, visible = _encoded(rng)
    candidates = 4.0 * encoded[:, [-1, -2], :]   # aligned with the last two positions
    frac, last = attention_entropy(candidates, encoded, visible)
    assert np.all(frac < 0.5)
    assert np.all(last[:, 0] > 0.5)


@pytest.fixture()
def probe_model(micro_dataset):
    cfg = STiSANConfig.small(max_len=10, poi_dim=8, geo_dim=8, num_blocks=1,
                             dropout=0.0, use_geo=False)
    return STiSAN(micro_dataset.num_pois, micro_dataset.poi_coords, cfg,
                  rng=np.random.default_rng(2))


def test_model_probe_with_zero_poi_embeddings_is_uniform(micro_dataset, probe_model):
    _, examples = partition(micro_dataset, n=10)
    probe_model.train()
    probe_model.poi_embedding.weight.assign_(np.zeros_like(probe_model.poi_embedding.weight.data))
    report = taad_attention_entropy(probe_model, micro_dataset, examples, num_candidates=20)
    assert report.pairs > 0
    assert report.entropy_frac == 1.0
    assert report.last_weight == pytest.approx(report.uniform_weight)
    assert probe_model.training, "the probe must restore the model's mode"


def test_model_probe_leaves_scores_unchanged(micro_dataset, probe_model):
    _, examples = partition(micro_dataset, n=10)
    probe_model.eval()
    src = np.stack([e.src_pois for e in examples])
    times = np.stack([e.src_times for e in examples])
    slates = np.tile(np.arange(1, 11), (len(examples), 1))
    before = probe_model.score_candidates(src, times, slates)
    report = taad_attention_entropy(probe_model, micro_dataset, examples, num_candidates=20)
    assert 0.0 < report.entropy_frac <= 1.0
    np.testing.assert_array_equal(probe_model.score_candidates(src, times, slates), before)
