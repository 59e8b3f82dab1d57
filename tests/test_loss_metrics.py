"""Tests for the weighted BCE loss and ranking metrics."""

import numpy as np
import pytest

from repro.core.loss import weighted_bce_loss
from repro.eval.metrics import (
    average_reports,
    hit_rate_at_k,
    ndcg_at_k,
    report_from_ranks,
    target_ranks,
)
from repro.nn.tensor import Tensor


class TestWeightedBCE:
    def _scores(self, b=2, n=4, L=3, seed=0):
        rng = np.random.default_rng(seed)
        pos = Tensor(rng.normal(size=(b, n)).astype(np.float32), requires_grad=True)
        neg = Tensor(rng.normal(size=(b, n, L)).astype(np.float32), requires_grad=True)
        mask = np.ones((b, n), dtype=bool)
        return pos, neg, mask

    def test_scalar_output(self):
        pos, neg, mask = self._scores()
        loss = weighted_bce_loss(pos, neg, mask)
        assert loss.data.shape == ()
        assert float(loss.data) > 0

    def test_perfect_scores_low_loss(self):
        pos = Tensor(np.full((1, 3), 20.0, dtype=np.float32), requires_grad=True)
        neg = Tensor(np.full((1, 3, 5), -20.0, dtype=np.float32), requires_grad=True)
        loss = weighted_bce_loss(pos, neg, np.ones((1, 3), dtype=bool))
        assert float(loss.data) < 1e-4

    def test_inverted_scores_high_loss(self):
        pos = Tensor(np.full((1, 3), -10.0, dtype=np.float32), requires_grad=True)
        neg = Tensor(np.full((1, 3, 5), 10.0, dtype=np.float32), requires_grad=True)
        loss = weighted_bce_loss(pos, neg, np.ones((1, 3), dtype=bool))
        assert float(loss.data) > 10

    def test_masked_steps_no_gradient(self):
        pos, neg, _ = self._scores(b=1, n=3)
        mask = np.array([[True, False, True]])
        weighted_bce_loss(pos, neg, mask).backward()
        assert pos.grad[0, 1] == 0.0
        np.testing.assert_allclose(neg.grad[0, 1], 0.0)
        assert np.abs(pos.grad[0, 0]) > 0

    def test_all_masked_safe(self):
        pos, neg, _ = self._scores(b=1, n=2)
        loss = weighted_bce_loss(pos, neg, np.zeros((1, 2), dtype=bool))
        assert float(loss.data) == 0.0

    def test_temperature_extremes(self):
        """T -> inf gives uniform weights; small T concentrates on the
        hardest negative."""
        pos = Tensor(np.zeros((1, 1), dtype=np.float32), requires_grad=True)
        neg_data = np.array([[[3.0, 0.0, -3.0]]], dtype=np.float32)
        neg_hot = Tensor(neg_data.copy(), requires_grad=True)
        weighted_bce_loss(pos, neg_hot, np.ones((1, 1), dtype=bool), temperature=0.05).backward()
        grad_hot = neg_hot.grad[0, 0]
        neg_cold = Tensor(neg_data.copy(), requires_grad=True)
        pos2 = Tensor(np.zeros((1, 1), dtype=np.float32), requires_grad=True)
        weighted_bce_loss(pos2, neg_cold, np.ones((1, 1), dtype=bool), temperature=1e6).backward()
        grad_cold = neg_cold.grad[0, 0]
        # Low T: nearly all weight on the highest-scored negative.
        assert grad_hot[0] > 0.9 * grad_hot.sum()
        # High T: weights uniform -> gradient ratio driven by sigmoid only.
        assert grad_cold[2] > 0.0

    def test_invalid_temperature(self):
        pos, neg, mask = self._scores()
        with pytest.raises(ValueError):
            weighted_bce_loss(pos, neg, mask, temperature=0.0)



class TestMetrics:
    def test_hit_rate_basic(self):
        ranks = np.array([1, 3, 7, 12])
        assert hit_rate_at_k(ranks, 5) == pytest.approx(0.5)
        assert hit_rate_at_k(ranks, 10) == pytest.approx(0.75)

    def test_ndcg_rank1_is_one(self):
        assert ndcg_at_k(np.array([1]), 10) == pytest.approx(1.0)

    def test_ndcg_discount(self):
        assert ndcg_at_k(np.array([2]), 10) == pytest.approx(1 / np.log2(3))
        assert ndcg_at_k(np.array([11]), 10) == 0.0

    def test_ndcg_le_hr(self):
        rng = np.random.default_rng(0)
        ranks = rng.integers(1, 30, size=100)
        assert ndcg_at_k(ranks, 10) <= hit_rate_at_k(ranks, 10) + 1e-9

    def test_empty_ranks(self):
        assert hit_rate_at_k(np.array([]), 5) == 0.0
        assert ndcg_at_k(np.array([]), 5) == 0.0

    def test_target_ranks_basic(self):
        scores = np.array([[0.9, 0.1, 0.5], [0.1, 0.9, 0.5]])
        ranks = target_ranks(scores, target_index=0)
        np.testing.assert_array_equal(ranks, [1, 3])

    def test_target_ranks_pessimistic_ties(self):
        scores = np.zeros((1, 5))
        assert target_ranks(scores)[0] == 5  # all tied -> worst rank

    def test_report_from_ranks(self):
        rep = report_from_ranks([1, 2, 6, 20])
        assert rep.hr5 == pytest.approx(0.5)
        assert rep.hr10 == pytest.approx(0.75)
        assert rep.num_instances == 4
        assert "HR@5" in rep.as_dict()

    def test_average_reports(self):
        a = report_from_ranks([1, 1])
        b = report_from_ranks([20, 20])
        avg = average_reports([a, b])
        assert avg.hr5 == pytest.approx(0.5)

    def test_average_empty_raises(self):
        with pytest.raises(ValueError):
            average_reports([])

    def test_str_format(self):
        rep = report_from_ranks([1])
        assert "HR@5=1.0000" in str(rep)
