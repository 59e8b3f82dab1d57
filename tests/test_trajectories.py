"""Tests for the mobility/trajectory statistics."""

import numpy as np
import pytest

from repro.analysis import (
    dataset_mobility_summary,
    radius_of_gyration,
    session_count,
    user_stats,
)
from repro.data.types import SECONDS_PER_HOUR


class TestRadiusOfGyration:
    def test_single_point_zero(self):
        assert radius_of_gyration(np.array([[43.0, 125.0]])) == pytest.approx(0.0)

    def test_empty_zero(self):
        assert radius_of_gyration(np.zeros((0, 2))) == 0.0

    def test_spread_increases_radius(self):
        tight = np.array([[43.0, 125.0], [43.01, 125.01]])
        wide = np.array([[43.0, 125.0], [44.0, 126.0]])
        assert radius_of_gyration(wide) > radius_of_gyration(tight)

    def test_scale_sanity(self):
        # Two points ~111 km apart -> radius ~55 km.
        coords = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert radius_of_gyration(coords) == pytest.approx(55.6, rel=0.02)


class TestSessionCount:
    def test_single_session(self):
        times = np.arange(5) * SECONDS_PER_HOUR  # 1h gaps
        assert session_count(times, session_gap_hours=12) == 1

    def test_split_on_long_gap(self):
        times = np.array([0.0, 3600.0, 3600.0 * 30, 3600.0 * 31])
        assert session_count(times, session_gap_hours=12) == 2

    def test_empty(self):
        assert session_count(np.array([])) == 0

    def test_every_gap_long(self):
        times = np.arange(4) * 100 * SECONDS_PER_HOUR
        assert session_count(times, session_gap_hours=12) == 4


class TestUserStats:
    def test_fields_consistent(self, micro_dataset):
        user = micro_dataset.users()[0]
        stats = user_stats(micro_dataset, user)
        seq = micro_dataset.sequences[user]
        assert stats.num_checkins == len(seq)
        assert stats.num_unique_pois == len(np.unique(seq.pois))
        assert 0 < stats.exploration_rate <= 1
        assert stats.num_sessions >= 1
        assert stats.radius_of_gyration_km >= 0

    def test_exploration_rate_definition(self, micro_dataset):
        user = micro_dataset.users()[0]
        stats = user_stats(micro_dataset, user)
        assert stats.exploration_rate == pytest.approx(
            stats.num_unique_pois / stats.num_checkins
        )


class TestDatasetSummary:
    def test_summary_keys(self, micro_dataset):
        summary = dataset_mobility_summary(micro_dataset)
        assert summary["users"] == micro_dataset.num_users
        assert summary["mean_hop_km"] > 0
        assert summary["mean_sessions_per_user"] >= 1

    def test_synthetic_clustering_signature(self, tiny_dataset):
        """Hops should be far smaller than the world's spatial extent —
        the clustering property the generator plants."""
        summary = dataset_mobility_summary(tiny_dataset)
        extent_km = radius_of_gyration(tiny_dataset.poi_coords[1:])
        assert summary["mean_hop_km"] < extent_km
