"""Failure-injection tests: malformed inputs must fail loudly and
degenerate-but-legal inputs must not produce NaNs."""

import numpy as np
import pytest

from repro.core import STiSAN, STiSANConfig
from repro.core.relation import RelationConfig, build_relation_matrix
from repro.core.tape import TimeAwarePositionEncoder, time_aware_positions
from repro.data import (
    PAD_POI,
    CheckInDataset,
    NearestNegativeSampler,
    UserSequence,
    WorldConfig,
    partition,
)
from repro.nn import Embedding, Linear
from repro.nn.rowsparse import dense_grad
from repro.nn.tensor import Tensor


@pytest.fixture()
def model(micro_dataset):
    cfg = STiSANConfig.small(max_len=8, poi_dim=8, geo_dim=8, num_blocks=1, dropout=0.0)
    m = STiSAN(micro_dataset.num_pois, micro_dataset.poi_coords, cfg,
               rng=np.random.default_rng(0))
    m.eval()
    return m


class TestDegenerateInputsStayFinite:
    def test_all_identical_timestamps(self, model, micro_dataset):
        src = np.array([[1, 2, 3, 4, 5, 6, 7, 8]])
        times = np.full((1, 8), 1e9)
        out = model.encode(src, times)
        assert np.isfinite(out.data).all()

    def test_single_real_checkin_rest_padding(self, model):
        src = np.array([[0, 0, 0, 0, 0, 0, 0, 3]])
        times = np.full((1, 8), 1e9)
        cands = np.arange(1, 5)[None, :]
        scores = model.score_candidates(src, times, cands)
        assert np.isfinite(scores).all()

    def test_identical_pois_whole_sequence(self, model):
        src = np.full((1, 8), 2, dtype=np.int64)
        times = 1e9 + np.arange(8)[None, :] * 3600.0
        out = model.encode(src, times)
        assert np.isfinite(out.data).all()

    def test_extreme_time_span(self, model):
        """Decades between check-ins must not overflow the encodings."""
        src = np.array([[1, 2, 3, 4, 5, 6, 7, 8]])
        times = np.array([[0, 1, 2, 3, 1e9, 2e9, 2.5e9, 3e9]], dtype=np.float64)
        out = model.encode(src, times)
        assert np.isfinite(out.data).all()

    def test_extreme_coordinates_relation(self):
        """Near-pole / antimeridian coordinates stay finite."""
        times = np.array([0.0, 3600.0, 7200.0])
        coords = np.array([[89.9, 179.9], [-89.9, -179.9], [0.0, 0.0]])
        r = build_relation_matrix(times, coords, RelationConfig(10, 15))
        assert np.isfinite(r).all()

    def test_tape_zero_length_and_singleton(self):
        assert time_aware_positions(np.zeros((1, 0))).shape == (1, 0)
        pos = time_aware_positions(np.array([5.0]))
        np.testing.assert_allclose(pos, [1.0])

    def test_tape_encoder_handles_all_pad_row(self):
        enc = TimeAwarePositionEncoder(8)
        times = np.full((1, 4), 7.0)
        pad = np.ones((1, 4), dtype=bool)
        out = enc(times, pad_mask=pad)
        np.testing.assert_allclose(out, 0.0)


class TestMalformedInputsRaise:
    def test_embedding_rejects_bad_ids(self, rng):
        emb = Embedding(10, 4, rng=rng)
        with pytest.raises(IndexError):
            emb(np.array([[1, 99]]))

    def test_user_sequence_rejects_nan_times(self):
        with pytest.raises(ValueError):
            UserSequence(user=1, pois=np.array([1, 2]), times=np.array([1.0, np.nan]))

    def test_user_sequence_rejects_inf_times(self):
        with pytest.raises(ValueError):
            UserSequence(user=1, pois=np.array([1, 2]), times=np.array([1.0, np.inf]))

    def test_partition_window_too_small(self, micro_dataset):
        with pytest.raises(ValueError):
            partition(micro_dataset, n=0)

    def test_sampler_on_tiny_catalogue(self):
        coords = np.zeros((3, 2))
        coords[1:] = [[43.0, 125.0], [43.1, 125.1]]
        ds = CheckInDataset(
            name="tiny2",
            poi_coords=coords,
            sequences={
                1: UserSequence(user=1, pois=np.array([1, 2]), times=np.array([1.0, 2.0]))
            },
        )
        with pytest.raises(ValueError):
            NearestNegativeSampler(ds, num_negatives=5, rng=np.random.default_rng(0))

    def test_world_config_rejects_nonsense(self):
        with pytest.raises(ValueError):
            WorldConfig(num_users=5, num_pois=2, num_clusters=8)

    def test_stisan_rejects_wrong_coord_count(self, micro_dataset):
        cfg = STiSANConfig.small(max_len=8, poi_dim=8, geo_dim=8)
        with pytest.raises(ValueError):
            STiSAN(
                micro_dataset.num_pois, micro_dataset.poi_coords[:-2], cfg,
                rng=np.random.default_rng(0),
            )

    def test_linear_shape_mismatch_raises(self, rng):
        layer = Linear(4, 2, rng=rng)
        with pytest.raises(ValueError):
            layer(Tensor(np.zeros((3, 5), dtype=np.float32)))


class TestAdversarialTraining:
    def test_training_with_all_pad_targets_is_safe(self, micro_dataset):
        """A batch whose targets are entirely padding yields zero loss
        and zero gradients, not NaNs."""
        from repro.core.loss import weighted_bce_loss

        cfg = STiSANConfig.small(max_len=6, poi_dim=8, geo_dim=8, num_blocks=1, dropout=0.0)
        model = STiSAN(micro_dataset.num_pois, micro_dataset.poi_coords, cfg,
                       rng=np.random.default_rng(0))
        src = np.array([[0, 0, 0, 1, 2, 3]])
        times = 1e9 + np.arange(6)[None, :] * 3600.0
        tgt = np.zeros((1, 6), dtype=np.int64)
        negs = np.zeros((1, 6, 2), dtype=np.int64)
        pos, neg = model.forward_train(src, times, tgt, negs)
        loss = weighted_bce_loss(pos, neg, tgt != PAD_POI)
        assert float(loss.data) == 0.0
        loss.backward()
        for p in model.parameters():
            if p.grad is not None:
                assert np.isfinite(dense_grad(p.grad)).all()

    def test_gradient_clipping_tames_exploding_batch(self, micro_dataset):
        from repro.nn.optim import Adam

        cfg = STiSANConfig.small(max_len=6, poi_dim=8, geo_dim=8, num_blocks=1, dropout=0.0)
        model = STiSAN(micro_dataset.num_pois, micro_dataset.poi_coords, cfg,
                       rng=np.random.default_rng(0))
        opt = Adam(model.parameters(), lr=1e-3)
        # Inject a huge synthetic gradient.
        for p in model.parameters():
            p.grad = np.full_like(p.data, 1e6)
        norm = opt.clip_grad_norm(1.0)
        assert norm > 1e6
        total = sum(float((p.grad ** 2).sum()) for p in model.parameters())
        assert np.sqrt(total) == pytest.approx(1.0, rel=1e-3)
