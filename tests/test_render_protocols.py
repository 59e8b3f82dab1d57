"""Tests for ASCII rendering and the full-catalogue protocol."""

import numpy as np
import pytest

from repro.analysis import render_heatmap, render_histogram
from repro.data import partition
from repro.eval import evaluate, evaluate_full_catalogue


class TestRenderHeatmap:
    def test_small_matrix_direct(self):
        m = np.array([[0.0, 1.0], [0.5, 0.0]])
        out = render_heatmap(m)
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0][0] == " "           # zero -> empty
        assert lines[0][1] == "@"           # max -> densest

    def test_large_matrix_pooled(self):
        m = np.random.default_rng(0).random((100, 100))
        out = render_heatmap(m, max_size=16)
        lines = out.splitlines()
        assert len(lines) == 16
        assert all(len(l) == 16 for l in lines)

    def test_title(self):
        out = render_heatmap(np.ones((2, 2)), title="attn")
        assert out.splitlines()[0] == "attn"

    def test_all_zero_safe(self):
        out = render_heatmap(np.zeros((3, 3)))
        assert set("".join(out.splitlines())) == {" "}

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            render_heatmap(np.zeros(4))


class TestRenderHistogram:
    def test_bars_scale(self):
        out = render_histogram([1, 2, 4], labels=["a", "b", "c"], width=8)
        lines = out.splitlines()
        assert lines[2].count("#") == 8       # the max bar fills the width
        assert lines[0].count("#") == 2

    def test_label_mismatch(self):
        with pytest.raises(ValueError):
            render_histogram([1, 2], labels=["only-one"])

    def test_empty_safe(self):
        assert render_histogram([]) == ""


class _TargetOracle:
    def score_candidates(self, src, times, candidates, users=None):
        scores = np.zeros(np.asarray(candidates).shape)
        scores[:, 0] = 1.0
        return scores


class _PoiIdScorer:
    """Scores candidates by POI id — deterministic, catalogue-wide."""

    def score_candidates(self, src, times, candidates, users=None):
        return np.asarray(candidates, dtype=np.float64)


class TestFullCatalogueProtocol:
    def test_oracle_perfect(self, micro_dataset):
        _, evaluation = partition(micro_dataset, n=8)
        rep = evaluate_full_catalogue(_TargetOracle(), micro_dataset, evaluation)
        assert rep.hr10 == 1.0

    def test_harder_than_sampled(self, micro_dataset):
        """Against the whole catalogue a fixed scorer cannot do better
        than against 100 sampled candidates (more competitors)."""
        _, evaluation = partition(micro_dataset, n=8)
        scorer = _PoiIdScorer()
        sampled = evaluate(scorer, micro_dataset, evaluation, num_candidates=10)
        full = evaluate_full_catalogue(scorer, micro_dataset, evaluation,
                                       exclude_visited=False)
        assert full.hr10 <= sampled.hr10 + 1e-9

    def test_exclude_visited_never_hurts(self, micro_dataset):
        _, evaluation = partition(micro_dataset, n=8)
        scorer = _PoiIdScorer()
        kept = evaluate_full_catalogue(scorer, micro_dataset, evaluation,
                                       exclude_visited=False)
        excluded = evaluate_full_catalogue(scorer, micro_dataset, evaluation,
                                           exclude_visited=True)
        assert excluded.hr10 >= kept.hr10 - 1e-9

    def test_empty_raises(self, micro_dataset):
        with pytest.raises(ValueError):
            evaluate_full_catalogue(_TargetOracle(), micro_dataset, [])
