"""Tests for the assembled STiSAN model (Section III) and its trainer."""

import numpy as np
import pytest

from repro.core import STiSAN, STiSANConfig, TrainConfig, train_stisan
from repro.core.geo_encoder import GeographyEncoder
from repro.data import PAD_POI, partition
from repro.eval.flops import parameter_counts
from repro.geo.quadkey import QuadkeyVocab
from repro.nn import load_checkpoint, save_checkpoint
from repro.nn.rowsparse import dense_grad
from repro.nn.tensor import Tensor


@pytest.fixture(scope="module")
def small_cfg():
    return STiSANConfig.small(max_len=12, poi_dim=8, geo_dim=8, num_blocks=2, dropout=0.0)


@pytest.fixture(scope="module")
def model_and_data(micro_dataset, small_cfg):
    model = STiSAN(
        micro_dataset.num_pois,
        micro_dataset.poi_coords,
        small_cfg,
        rng=np.random.default_rng(0),
    )
    train, evaluation = partition(micro_dataset, n=small_cfg.max_len)
    return model, train, evaluation


def gather_every_id_forward(enc, poi_ids):
    """Reference oracle: the encoder's former forward, which gathers and
    pools the n-grams of every id, repeats included."""
    ids = np.asarray(poi_ids).astype(np.int64)
    grams = enc.gram_ids[ids]                            # (..., G)
    embedded = enc.gram_embedding(grams)                 # (..., G, dim)
    if enc.pooling == "attn":
        flat = embedded.reshape(-1, grams.shape[-1], enc.dim)
        embedded = enc.attn(flat).reshape(*grams.shape, enc.dim)
    real = (grams != QuadkeyVocab.PAD).astype(np.float32)
    counts = np.maximum(real.sum(axis=-1, keepdims=True), 1.0)
    pooled = (embedded * Tensor(real[..., None])).sum(axis=-2) * Tensor(1.0 / counts)
    out = enc.project(pooled)
    pad = ids == 0
    if pad.any():
        out = out.masked_fill(pad[..., None], 0.0)
    return out


def oracle_ids(num_pois, rng):
    """Id arrays of every shape the model feeds the encoder, with
    padding and repeats."""
    seq = rng.integers(1, num_pois + 1, size=(4, 7))
    seq[:, :3] = 0                                       # head padding
    seq[1] = seq[0]                                      # a repeated row
    cands = rng.integers(1, num_pois + 1, size=(4, 7, 1 + 5))
    cands[0, :2] = 0
    cands[2, 3, :] = cands[2, 3, 0]                      # repeats within a slate
    return {
        "seq": seq,
        "candidates": cands,
        "scalar": np.array(5),
        "empty": np.zeros((2, 0), dtype=np.int64),
    }


class TestGeographyEncoder:
    @pytest.mark.parametrize("pooling", ["mean", "attn"])
    @pytest.mark.parametrize("case", ["seq", "candidates", "scalar", "empty"])
    def test_forward_bitwise_equals_gather_every_id(self, micro_dataset, pooling, case):
        enc = GeographyEncoder(micro_dataset.poi_coords, 8, level=12, ngram=4,
                               pooling=pooling, rng=np.random.default_rng(1))
        ids = oracle_ids(micro_dataset.num_pois, np.random.default_rng(2))[case]
        got = enc(ids).data
        want = gather_every_id_forward(enc, ids).data
        assert got.shape == ids.shape + (8,)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("pooling", ["mean", "attn"])
    def test_gradients_match_gather_every_id(self, micro_dataset, pooling):
        enc = GeographyEncoder(micro_dataset.poi_coords, 8, level=12, ngram=4,
                               pooling=pooling, rng=np.random.default_rng(1))
        ids = oracle_ids(micro_dataset.num_pois, np.random.default_rng(2))["candidates"]
        upstream = np.random.default_rng(3).standard_normal(ids.shape + (8,)).astype(np.float32)
        grads = []
        for forward in (lambda x: enc(x), lambda x: gather_every_id_forward(enc, x)):
            enc.zero_grad()
            (forward(ids) * Tensor(upstream)).sum().backward()
            grads.append({name: dense_grad(p.grad).copy() for name, p in enc.named_parameters()})
        got, want = grads
        assert set(got) == set(want)
        for name in want:
            # Summing repeats in another order moves float32 rounding; an
            # entry that cancels to near zero is judged on its tensor's scale.
            scale = np.abs(want[name]).max()
            np.testing.assert_allclose(got[name], want[name], rtol=1e-5, atol=1e-5 * scale,
                                       err_msg=name)

    def test_padding_rows_zero_and_get_no_gradient(self, micro_dataset, rng):
        enc = GeographyEncoder(micro_dataset.poi_coords, 8, level=12, ngram=4, rng=rng)
        ids = np.array([[0, 0, 3, 3], [0, 1, 2, 3]])
        out = enc(ids)
        assert np.all(out.data[ids == 0] == 0.0)
        out.sum().backward()
        assert np.all(dense_grad(enc.gram_embedding.weight.grad)[QuadkeyVocab.PAD] == 0.0)
        # Only padding in: no gradient reaches any parameter.
        enc.zero_grad()
        enc(np.zeros((2, 3), dtype=np.int64)).sum().backward()
        for name, p in enc.named_parameters():
            assert p.grad is None or not dense_grad(p.grad).any(), name

    @pytest.mark.parametrize("bad", [-1, "P + 1"])
    def test_out_of_range_id_raises(self, micro_dataset, rng, bad):
        enc = GeographyEncoder(micro_dataset.poi_coords, 8, level=12, ngram=4, rng=rng)
        bad = micro_dataset.num_pois + 1 if bad == "P + 1" else bad
        enc(np.array([micro_dataset.num_pois]))          # the last real POI is fine
        with pytest.raises(IndexError):
            enc(np.array([[1, bad]]))

    def test_output_shape(self, micro_dataset, rng):
        enc = GeographyEncoder(micro_dataset.poi_coords, 8, level=12, ngram=4, rng=rng)
        out = enc(np.array([[1, 2], [3, 0]]))
        assert out.shape == (2, 2, 8)

    def test_padding_poi_zero(self, micro_dataset, rng):
        enc = GeographyEncoder(micro_dataset.poi_coords, 8, level=12, ngram=4, rng=rng)
        out = enc(np.array([0]))
        np.testing.assert_allclose(out.data, 0.0)

    def test_nearby_pois_similar(self, micro_dataset, rng):
        from repro.geo import pairwise_haversine

        enc = GeographyEncoder(micro_dataset.poi_coords, 16, level=14, ngram=4, rng=rng)
        dists = pairwise_haversine(micro_dataset.poi_coords[1:])
        np.fill_diagonal(dists, np.inf)
        i, j = np.unravel_index(np.argmin(dists), dists.shape)
        k = np.argmax(np.where(np.isfinite(dists[i]), dists[i], -1.0))
        vecs = enc(np.array([i + 1, j + 1, k + 1])).data
        near = np.linalg.norm(vecs[0] - vecs[1])
        far = np.linalg.norm(vecs[0] - vecs[2])
        assert near < far

    def test_attn_pooling_mode(self, micro_dataset, rng):
        enc = GeographyEncoder(
            micro_dataset.poi_coords, 8, level=12, ngram=4, pooling="attn", rng=rng
        )
        out = enc(np.array([1, 2, 3]))
        assert out.shape == (3, 8)

    def test_invalid_pooling(self, micro_dataset):
        with pytest.raises(ValueError):
            GeographyEncoder(
                micro_dataset.poi_coords, 8, pooling="max",
                rng=np.random.default_rng(0),
            )


class TestSTiSANModel:
    def test_embed_concatenates(self, model_and_data, small_cfg):
        model, _, _ = model_and_data
        out = model.embed(np.array([1, 2]))
        assert out.shape == (2, small_cfg.dim)

    def test_encode_shape(self, model_and_data, small_cfg):
        model, train, _ = model_and_data
        src = np.stack([train[0].src_pois, train[1].src_pois])
        times = np.stack([train[0].src_times, train[1].src_times])
        out = model.encode(src, times)
        assert out.shape == (2, small_cfg.max_len, small_cfg.dim)

    def test_padding_rows_zero(self, model_and_data):
        model, train, _ = model_and_data
        example = next(e for e in train if (e.src_pois == PAD_POI).any())
        model.eval()
        out = model.encode(example.src_pois[None, :], example.src_times[None, :])
        pad = example.src_pois == PAD_POI
        np.testing.assert_allclose(out.data[0, pad], 0.0, atol=1e-6)

    def test_forward_train_shapes(self, model_and_data, small_cfg):
        model, train, _ = model_and_data
        b = 3
        src = np.stack([e.src_pois for e in train[:b]])
        times = np.stack([e.src_times for e in train[:b]])
        tgt = np.stack([e.tgt_pois for e in train[:b]])
        negs = np.random.default_rng(0).integers(1, model.num_pois + 1, size=(b, small_cfg.max_len, 4))
        pos, neg = model.forward_train(src, times, tgt, negs)
        assert pos.shape == (b, small_cfg.max_len)
        assert neg.shape == (b, small_cfg.max_len, 4)

    def test_no_future_leakage_in_training_scores(self, model_and_data, small_cfg):
        """Scores at step i must not depend on source positions > i."""
        model, train, _ = model_and_data
        model.eval()
        e = next(x for x in train if (x.src_pois != PAD_POI).all())
        src = e.src_pois[None, :].copy()
        times = e.src_times[None, :]
        tgt = e.tgt_pois[None, :]
        negs = np.full((1, small_cfg.max_len, 2), 1, dtype=np.int64)
        pos1, _ = model.forward_train(src, times, tgt, negs)
        src2 = src.copy()
        other = 2 if src2[0, -1] != 2 else 3
        src2[0, -1] = other  # change only the last source POI
        pos2, _ = model.forward_train(src2, times, tgt, negs)
        np.testing.assert_allclose(pos1.data[0, :-1], pos2.data[0, :-1], atol=2e-4)

    def test_score_candidates_shape(self, model_and_data):
        model, _, evaluation = model_and_data
        src = np.stack([e.src_pois for e in evaluation[:2]])
        times = np.stack([e.src_times for e in evaluation[:2]])
        cands = np.tile(np.arange(1, 6), (2, 1))
        scores = model.score_candidates(src, times, cands)
        assert scores.shape == (2, 5)
        assert np.isfinite(scores).all()

    def test_recommend_returns_ranked_ids(self, model_and_data):
        model, _, evaluation = model_and_data
        src = evaluation[0].src_pois[None, :]
        times = evaluation[0].src_times[None, :]
        cands = np.arange(1, 9)[None, :]
        top3 = model.recommend(src, times, cands, k=3)
        assert top3.shape == (1, 3)
        scores = model.score_candidates(src, times, cands)[0]
        expected = cands[0][np.argsort(-scores)[:3]]
        np.testing.assert_array_equal(top3[0], expected)

    def test_coords_shape_validation(self, micro_dataset, small_cfg):
        with pytest.raises(ValueError):
            STiSAN(
                micro_dataset.num_pois + 5, micro_dataset.poi_coords, small_cfg,
                rng=np.random.default_rng(0),
            )

    def test_return_weights(self, model_and_data, small_cfg):
        model, train, _ = model_and_data
        src = train[0].src_pois[None, :]
        times = train[0].src_times[None, :]
        _, weights = model.encode(src, times, return_weights=True)
        assert len(weights) == small_cfg.num_blocks
        assert weights[0].shape == (1, small_cfg.max_len, small_cfg.max_len)

    def test_checkpoint_roundtrip(self, model_and_data, micro_dataset, small_cfg, tmp_path):
        model, _, evaluation = model_and_data
        path = tmp_path / "stisan.npz"
        save_checkpoint(model, path, meta={"cfg": "small"})
        clone = STiSAN(
            micro_dataset.num_pois,
            micro_dataset.poi_coords,
            small_cfg,
            rng=np.random.default_rng(99),
        )
        meta = load_checkpoint(clone, path)
        assert meta["cfg"] == "small"
        src = evaluation[0].src_pois[None, :]
        times = evaluation[0].src_times[None, :]
        cands = np.arange(1, 6)[None, :]
        model.eval(); clone.eval()
        np.testing.assert_allclose(
            model.score_candidates(src, times, cands),
            clone.score_candidates(src, times, cands),
            atol=1e-6,
        )


class TestAblationVariants:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(use_geo=False),
            dict(use_tape=False),
            dict(use_relation=False),
            dict(use_attention=False),
            dict(use_taad=False),
        ],
    )
    def test_variant_forward(self, micro_dataset, kwargs):
        cfg = STiSANConfig.small(max_len=10, poi_dim=8, geo_dim=8, num_blocks=1, dropout=0.0, **kwargs)
        model = STiSAN(micro_dataset.num_pois, micro_dataset.poi_coords, cfg,
                       rng=np.random.default_rng(0))
        train, _ = partition(micro_dataset, n=10)
        src = train[0].src_pois[None, :]
        times = train[0].src_times[None, :]
        tgt = train[0].tgt_pois[None, :]
        negs = np.full((1, 10, 2), 1, dtype=np.int64)
        pos, neg = model.forward_train(src, times, tgt, negs)
        assert np.isfinite(pos.data).all() and np.isfinite(neg.data).all()
        cands = np.arange(1, 5)[None, :]
        assert model.score_candidates(src, times, cands).shape == (1, 4)

    def test_remove_both_sa_and_relation_invalid(self):
        with pytest.raises(ValueError):
            STiSANConfig.small(use_relation=False, use_attention=False)

    def test_remove_geo_halves_dim(self):
        cfg = STiSANConfig.small(poi_dim=8, geo_dim=8, use_geo=False)
        assert cfg.dim == 8


class TestTraining:
    def test_loss_decreases(self, micro_dataset):
        cfg = STiSANConfig.small(max_len=10, poi_dim=8, geo_dim=8, num_blocks=1, dropout=0.0)
        model = STiSAN(micro_dataset.num_pois, micro_dataset.poi_coords, cfg,
                       rng=np.random.default_rng(0))
        train, _ = partition(micro_dataset, n=10)
        result = train_stisan(
            model, micro_dataset, train,
            TrainConfig(epochs=8, batch_size=8, num_negatives=3, seed=0),
        )
        assert len(result.epoch_losses) == 8
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_training_sets_eval_mode(self, micro_dataset):
        cfg = STiSANConfig.small(max_len=10, poi_dim=8, geo_dim=8, num_blocks=1)
        model = STiSAN(micro_dataset.num_pois, micro_dataset.poi_coords, cfg,
                       rng=np.random.default_rng(0))
        train, _ = partition(micro_dataset, n=10)
        train_stisan(model, micro_dataset, train, TrainConfig(epochs=1, num_negatives=2))
        assert not model.training

    def test_lightweight_claim_no_tape_or_relation_parameters(self, micro_dataset):
        """TAPE and the relation matrix add zero learnable parameters:
        the parameter count with and without them is identical."""
        full = STiSANConfig.small(max_len=10, poi_dim=8, geo_dim=8, num_blocks=2)
        bare = STiSANConfig.small(
            max_len=10, poi_dim=8, geo_dim=8, num_blocks=2,
            use_tape=False, use_relation=False,
        )
        m_full = STiSAN(micro_dataset.num_pois, micro_dataset.poi_coords, full,
                        rng=np.random.default_rng(0))
        m_bare = STiSAN(micro_dataset.num_pois, micro_dataset.poi_coords, bare,
                        rng=np.random.default_rng(0))
        assert m_full.num_parameters() == m_bare.num_parameters()
        counts = parameter_counts(m_full)
        assert "position_encoder" not in counts
