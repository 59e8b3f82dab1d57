"""Tests for the twelve baselines: interface compliance, training
sanity, and model-specific behaviours."""

import numpy as np
import pytest

from repro.baselines import (
    TABLE3_MODELS,
    make_recommender,
    registry,
    training_pairs,
    training_transitions,
)
from repro.baselines.base import last_real_positions
from repro.core import TrainConfig
from repro.data import PAD_POI, partition
from repro.eval.protocol import evaluate

MAX_LEN = 10
TRAIN = TrainConfig(epochs=2, batch_size=16, num_negatives=3, seed=0)


@pytest.fixture(scope="module")
def split(micro_dataset):
    return partition(micro_dataset, n=MAX_LEN)


class TestRegistry:
    def test_all_models_registered(self):
        assert set(TABLE3_MODELS) <= set(registry())

    def test_unknown_name(self, micro_dataset):
        with pytest.raises(KeyError):
            make_recommender("nope", micro_dataset)


class TestInterfaceCompliance:
    """Every registered model must train, score finite values of the
    right shape, and rank deterministically after fit."""

    @pytest.mark.parametrize("name", TABLE3_MODELS)
    def test_fit_and_score(self, name, micro_dataset, split):
        train, evaluation = split
        model = make_recommender(name, micro_dataset, max_len=MAX_LEN, dim=12, seed=0)
        model.fit(micro_dataset, train, TRAIN)
        src = np.stack([e.src_pois for e in evaluation[:4]])
        times = np.stack([e.src_times for e in evaluation[:4]])
        users = np.array([e.user for e in evaluation[:4]])
        cands = np.tile(np.arange(1, 8), (4, 1))
        scores = model.score_candidates(src, times, cands, users=users)
        assert scores.shape == (4, 7)
        assert np.isfinite(scores).all()
        # Deterministic in eval mode.
        scores2 = model.score_candidates(src, times, cands, users=users)
        np.testing.assert_allclose(scores, scores2, atol=1e-6)

    @pytest.mark.parametrize("name", ["POP", "BPR", "GRU4Rec", "SASRec", "STiSAN"])
    def test_recommend_topk(self, name, micro_dataset, split):
        train, evaluation = split
        model = make_recommender(name, micro_dataset, max_len=MAX_LEN, dim=12, seed=0)
        model.fit(micro_dataset, train, TRAIN)
        src = evaluation[0].src_pois[None, :]
        times = evaluation[0].src_times[None, :]
        users = np.array([evaluation[0].user])
        cands = np.arange(1, 10)[None, :]
        top = model.recommend(src, times, cands, k=3, users=users)
        assert top.shape == (1, 3)
        assert set(top[0]) <= set(cands[0])


class TestHelpers:
    def test_last_real_positions(self):
        src = np.array([[0, 0, 3, 4], [1, 2, 3, 4]])
        np.testing.assert_array_equal(last_real_positions(src), [3, 3])

    def test_last_real_positions_all_pad_raises(self):
        with pytest.raises(ValueError):
            last_real_positions(np.zeros((1, 4), dtype=np.int64))

    def test_training_pairs_excludes_padding(self, split):
        train, _ = split
        pairs = training_pairs(train)
        assert (pairs[:, 1] != PAD_POI).all()

    def test_training_transitions_consistent(self, split):
        train, _ = split
        trans = training_transitions(train)
        assert trans.shape[1] == 3
        assert (trans[:, 1:] != PAD_POI).all()


class TestPOP:
    def test_most_popular_ranked_first(self, micro_dataset, split):
        train, _ = split
        model = make_recommender("POP", micro_dataset)
        model.fit(micro_dataset, train, TRAIN)
        counts = model.counts
        top_poi = int(np.argmax(counts))
        cands = np.array([[top_poi, 1 if top_poi != 1 else 2]])
        src = np.array([[top_poi]])
        top = model.recommend(src, np.array([[0.0]]), cands, k=1)
        assert top[0, 0] == top_poi

    def test_unfitted_raises(self, micro_dataset):
        model = make_recommender("POP", micro_dataset)
        with pytest.raises(RuntimeError):
            model.score_candidates(np.array([[1]]), np.array([[0.0]]), np.array([[1]]))


class TestBPR:
    def test_learns_user_preferences(self, micro_dataset, split):
        """After training, a user's visited POIs outscore never-visited
        ones on average."""
        train, _ = split
        model = make_recommender("BPR", micro_dataset, dim=16, seed=0)
        model.fit(micro_dataset, train, TrainConfig(epochs=10, seed=0))
        user = micro_dataset.users()[0]
        visited = np.unique(micro_dataset.sequences[user].pois[:-1])
        unvisited = np.setdiff1d(np.arange(1, micro_dataset.num_pois + 1), visited)
        cands = np.concatenate([visited, unvisited])[None, :]
        scores = model.score_candidates(
            np.array([[1]]), np.array([[0.0]]), cands, users=np.array([user])
        )[0]
        assert scores[: len(visited)].mean() > scores[len(visited):].mean()

    def test_unknown_user_falls_back_to_mean(self, micro_dataset, split):
        train, _ = split
        model = make_recommender("BPR", micro_dataset, dim=8, seed=0)
        model.fit(micro_dataset, train, TrainConfig(epochs=1, seed=0))
        cands = np.array([[1, 2, 3]])
        s = model.score_candidates(np.array([[1]]), np.array([[0.0]]), cands,
                                   users=np.array([99999]))
        assert np.isfinite(s).all()


class TestFPMCLR:
    def test_transition_learning(self, micro_dataset, split):
        """Scores must depend on the previous POI (Markov term)."""
        train, _ = split
        model = make_recommender("FPMC-LR", micro_dataset, dim=16, seed=0)
        model.fit(micro_dataset, train, TrainConfig(epochs=6, seed=0))
        cands = np.array([[1, 2, 3, 4]])
        t = np.array([[0.0, 1.0]])
        s_from_1 = model.score_candidates(np.array([[PAD_POI, 1]]), t, cands)
        s_from_2 = model.score_candidates(np.array([[PAD_POI, 2]]), t, cands)
        assert not np.allclose(s_from_1, s_from_2)


class TestPRMEG:
    def test_distance_weight_monotone(self, micro_dataset, split):
        train, _ = split
        model = make_recommender("PRME-G", micro_dataset, dim=8, seed=0)
        model.fit(micro_dataset, train, TrainConfig(epochs=1, seed=0))
        w_near = model._distance_weight(np.array(1), np.array(1))
        far_poi = micro_dataset.num_pois
        w_far = model._distance_weight(np.array(1), np.array(far_poi))
        assert w_near <= w_far or np.isclose(w_near, w_far)

    def test_alpha_validation(self, micro_dataset):
        with pytest.raises(ValueError):
            make_recommender("PRME-G", micro_dataset, alpha=2.0)


class TestNeuralBaselineSpecifics:
    def test_caser_step_mask(self, micro_dataset):
        model = make_recommender("Caser", micro_dataset, dim=12, markov_len=4)
        mask = model.train_step_mask(np.zeros((2, 10), dtype=np.int64))
        assert not mask[:, :3].any()
        assert mask[:, 3:].all()

    def test_stgn_intervals_affect_scores(self, micro_dataset, split):
        train, evaluation = split
        model = make_recommender("STGN", micro_dataset, dim=12, seed=0)
        model.fit(micro_dataset, train, TRAIN)
        e = evaluation[0]
        src = e.src_pois[None, :]
        cands = np.arange(1, 6)[None, :]
        s1 = model.score_candidates(src, e.src_times[None, :], cands)
        stretched = e.src_times[None, :] * 5.0  # same order, bigger gaps
        s2 = model.score_candidates(src, stretched, cands)
        assert not np.allclose(s1, s2)

    def test_sasrec_position_modes(self, micro_dataset, split):
        train, _ = split
        for mode in ("learned", "sinusoid", "tape"):
            model = make_recommender(
                "SASRec", micro_dataset, max_len=MAX_LEN, dim=12, position_mode=mode, seed=0
            )
            model.fit(micro_dataset, train, TrainConfig(epochs=1, num_negatives=2, seed=0))

    def test_sasrec_invalid_position_mode(self, micro_dataset):
        with pytest.raises(ValueError):
            make_recommender("SASRec", micro_dataset, position_mode="rotary")

    def test_sasrec_interval_bias_needs_coords(self, micro_dataset):
        from repro.baselines.sasrec import SASRec

        with pytest.raises(ValueError):
            SASRec(num_pois=10, use_interval_bias=True, rng=np.random.default_rng(0))

    def test_tisasrec_buckets(self, micro_dataset):
        model = make_recommender("TiSASRec", micro_dataset, max_len=8, dim=12, num_buckets=16)
        times = np.array([[0.0, 10.0, 20.0, 400.0]])
        pad = np.zeros((1, 4), dtype=bool)
        buckets = model._interval_buckets(times, pad)
        assert buckets.shape == (1, 4, 4)
        assert buckets.max() <= 16
        assert buckets[0, 1, 0] == 1   # 10 s gap = 1 minimum interval
        assert buckets[0, 3, 0] == 16  # clipped

    def test_bert4rec_mask_token_distinct(self, micro_dataset):
        model = make_recommender("Bert4Rec", micro_dataset, max_len=MAX_LEN, dim=12)
        assert model.mask_token == micro_dataset.num_pois + 1

    def test_stan_interval_coefficients_learned(self, micro_dataset, split):
        train, _ = split
        model = make_recommender("STAN", micro_dataset, max_len=MAX_LEN, dim=12, seed=0)
        before = model.blocks[0].interval_coef.data.copy()
        model.fit(micro_dataset, train, TRAIN)
        after = model.blocks[0].interval_coef.data
        assert not np.allclose(before, after)

    def test_geosan_is_stisan_without_tape_relation(self, micro_dataset):
        model = make_recommender("GeoSAN", micro_dataset, max_len=MAX_LEN)
        assert model.config.use_tape is False
        assert model.config.use_relation is False
        assert model.config.use_geo is True


class TestTrainingImprovesRanking:
    def test_stisan_beats_untrained_self(self, micro_dataset, split):
        train, evaluation = split
        untrained = make_recommender("STiSAN", micro_dataset, max_len=MAX_LEN, seed=0)
        untrained.model.eval()
        base = evaluate(untrained, micro_dataset, evaluation, num_candidates=20)
        trained = make_recommender("STiSAN", micro_dataset, max_len=MAX_LEN, seed=0)
        trained.fit(micro_dataset, train,
                    TrainConfig(epochs=10, batch_size=8, num_negatives=5, seed=0))
        better = evaluate(trained, micro_dataset, evaluation, num_candidates=20)
        assert better.hr10 >= base.hr10
