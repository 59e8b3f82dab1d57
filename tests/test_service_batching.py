"""Batch-vs-single equivalence suite for the serving path.

``RecommendationService.recommend_batch`` must return **bitwise
identical** scores and orderings to looping ``recommend`` — for
randomized live sessions with ragged lengths, explicit candidate
slates, warm and cold caches, and for STiSAN plus baseline
recommenders.  Any divergence means the batched forward pass or the
cache layer changed the math, which would silently corrupt every
downstream ranking; the assertions here are exact, not approximate.
"""

import numpy as np
import pytest

from repro.baselines import make_recommender
from repro.core import RecommendationService, STiSANConfig
from repro.core.service import Recommendation
from repro.core.stisan import STiSAN
from repro.geo import haversine

MAX_LEN = 10


def make_stisan_service(dataset, enable_caches, seed=0, **service_kwargs):
    cfg = STiSANConfig.small(max_len=MAX_LEN, poi_dim=8, geo_dim=8, num_blocks=2, dropout=0.0)
    model = STiSAN(dataset.num_pois, dataset.poi_coords, cfg, rng=np.random.default_rng(seed))
    model.eval()
    service_kwargs.setdefault("num_candidates", 20)
    return RecommendationService(
        model, dataset, max_len=MAX_LEN, enable_caches=enable_caches, **service_kwargs
    )


def make_baseline_service(name, dataset, enable_caches, seed=0):
    model = make_recommender(name, dataset, max_len=MAX_LEN, dim=16, seed=seed)
    if hasattr(model, "eval"):
        model.eval()
    return RecommendationService(
        model, dataset, max_len=MAX_LEN, num_candidates=20, enable_caches=enable_caches
    )


def as_tuples(recs):
    """A recommendation list as exact, comparable values."""
    return [(r.poi, r.score, r.distance_km) for r in recs]


def assert_batch_matches_loop(service, users, k=10, exclude_visited=True, candidates=None):
    looped = [
        service.recommend(
            u, k=k, exclude_visited=exclude_visited,
            candidates=None if candidates is None else candidates[i],
        )
        for i, u in enumerate(users)
    ]
    batched = service.recommend_batch(
        users, k=k, exclude_visited=exclude_visited, candidates=candidates
    )
    assert len(batched) == len(users)
    for single, batch in zip(looped, batched):
        assert as_tuples(single) == as_tuples(batch)


def grow_random_sessions(service, dataset, rng, num_new_users=4):
    """Create fresh users with randomized ragged live sessions."""
    new_users = []
    base_user = 10_000
    for j in range(num_new_users):
        user = base_user + j
        length = int(rng.integers(1, MAX_LEN + 4))
        t = float(rng.uniform(1.0e9, 1.1e9))
        for _ in range(length):
            service.check_in(user, int(rng.integers(1, dataset.num_pois + 1)), t)
            t += float(rng.uniform(60.0, 86400.0))
        new_users.append(user)
    return new_users


class TestSTiSANEquivalence:
    @pytest.mark.parametrize("enable_caches", [False, True])
    def test_seeded_histories(self, micro_dataset, enable_caches):
        service = make_stisan_service(micro_dataset, enable_caches)
        assert_batch_matches_loop(service, micro_dataset.users()[:6], k=5)

    @pytest.mark.parametrize("enable_caches", [False, True])
    def test_randomized_ragged_sessions(self, micro_dataset, enable_caches, rng):
        service = make_stisan_service(micro_dataset, enable_caches)
        users = grow_random_sessions(service, micro_dataset, rng, num_new_users=5)
        # Mix brand-new ragged sessions with seeded training histories.
        mixed = users[:3] + micro_dataset.users()[:3] + users[3:]
        assert_batch_matches_loop(service, mixed, k=7)

    @pytest.mark.parametrize("enable_caches", [False, True])
    def test_explicit_slates_ragged_widths(self, micro_dataset, enable_caches, rng):
        service = make_stisan_service(micro_dataset, enable_caches)
        users = micro_dataset.users()[:5]
        slates = [
            list(rng.choice(np.arange(1, micro_dataset.num_pois + 1),
                            size=int(rng.integers(1, 15)), replace=False))
            for _ in users
        ]
        assert_batch_matches_loop(service, users, k=10, candidates=slates)

    @pytest.mark.parametrize("enable_caches", [False, True])
    def test_mixed_explicit_and_default_slates(self, micro_dataset, enable_caches):
        service = make_stisan_service(micro_dataset, enable_caches)
        users = micro_dataset.users()[:4]
        slates = [[1, 2, 3], None, [4, 5], None]
        assert_batch_matches_loop(service, users, k=3, candidates=slates)

    def test_warm_cache_equals_cold_cache(self, micro_dataset):
        """The same query answered cold, then warm, must not change."""
        service = make_stisan_service(micro_dataset, enable_caches=True)
        users = micro_dataset.users()[:5]
        cold = service.recommend_batch(users, k=5)
        warm = service.recommend_batch(users, k=5)
        assert [as_tuples(r) for r in cold] == [as_tuples(r) for r in warm]
        assert service.caches.slates.stats.hits > 0
        assert service.caches.relations.stats.hits > 0

    def test_cached_equals_uncached_service(self, micro_dataset):
        users = micro_dataset.users()[:5]
        plain = make_stisan_service(micro_dataset, enable_caches=False)
        cached = make_stisan_service(micro_dataset, enable_caches=True)
        expected = [as_tuples(r) for r in plain.recommend_batch(users, k=5)]
        for _ in range(2):  # second pass runs fully warm
            got = [as_tuples(r) for r in cached.recommend_batch(users, k=5)]
            assert got == expected

    def test_exclude_visited_false_matches(self, micro_dataset):
        service = make_stisan_service(micro_dataset, enable_caches=True)
        assert_batch_matches_loop(
            service, micro_dataset.users()[:4], k=5, exclude_visited=False
        )

    def test_batch_order_independence(self, micro_dataset):
        """A user's recommendations must not depend on batch position."""
        service = make_stisan_service(micro_dataset, enable_caches=False)
        users = micro_dataset.users()[:5]
        forward = service.recommend_batch(users, k=5)
        backward = service.recommend_batch(users[::-1], k=5)
        for i, recs in enumerate(forward):
            assert as_tuples(recs) == as_tuples(backward[len(users) - 1 - i])

    def test_singleton_batch(self, micro_dataset):
        service = make_stisan_service(micro_dataset, enable_caches=True)
        user = micro_dataset.users()[0]
        assert as_tuples(service.recommend_batch([user], k=5)[0]) == as_tuples(
            service.recommend(user, k=5)
        )

    def test_empty_batch(self, micro_dataset):
        service = make_stisan_service(micro_dataset, enable_caches=True)
        assert service.recommend_batch([], k=5) == []


class TestBaselineEquivalence:
    """The batched path is model-agnostic: baselines must match too."""

    @pytest.mark.parametrize("name", ["SASRec", "TiSASRec"])
    @pytest.mark.parametrize("enable_caches", [False, True])
    def test_seeded_histories(self, micro_dataset, name, enable_caches):
        service = make_baseline_service(name, micro_dataset, enable_caches)
        assert_batch_matches_loop(service, micro_dataset.users()[:5], k=5)

    @pytest.mark.parametrize("name", ["SASRec", "TiSASRec"])
    def test_ragged_sessions_and_explicit_slates(self, micro_dataset, name, rng):
        service = make_baseline_service(name, micro_dataset, enable_caches=True)
        users = grow_random_sessions(service, micro_dataset, rng, num_new_users=3)
        assert_batch_matches_loop(service, users, k=5)
        slates = [[1, 2, 3, 4], [5, 6], [7, 8, 9]]
        assert_batch_matches_loop(service, users, k=5, candidates=slates)

    def test_fitted_pop_matches(self, micro_dataset):
        """A fitted non-neural baseline goes through the same path."""
        from repro.data import partition

        model = make_recommender("POP", micro_dataset, max_len=MAX_LEN, seed=0)
        train, _ = partition(micro_dataset, n=MAX_LEN)
        model.fit(micro_dataset, train, None)
        service = RecommendationService(
            model, micro_dataset, max_len=MAX_LEN, num_candidates=20
        )
        assert_batch_matches_loop(service, micro_dataset.users()[:5], k=5)


class TestBatchValidation:
    def test_unknown_user_in_batch_raises(self, micro_dataset):
        service = make_stisan_service(micro_dataset, enable_caches=True)
        users = micro_dataset.users()[:2] + [999_999]
        with pytest.raises(ValueError, match="no history"):
            service.recommend_batch(users, k=5)

    def test_unknown_user_single_raises(self, micro_dataset):
        service = make_stisan_service(micro_dataset, enable_caches=True)
        with pytest.raises(ValueError, match="no history"):
            service.recommend(999_999, k=5)

    def test_misaligned_candidates_rejected(self, micro_dataset):
        service = make_stisan_service(micro_dataset, enable_caches=True)
        users = micro_dataset.users()[:3]
        with pytest.raises(ValueError, match="align"):
            service.recommend_batch(users, k=5, candidates=[[1, 2]])

    def test_empty_explicit_slate_yields_empty_result(self, micro_dataset):
        service = make_stisan_service(micro_dataset, enable_caches=True)
        users = micro_dataset.users()[:3]
        results = service.recommend_batch(
            users, k=5, candidates=[[], [1, 2, 3], []]
        )
        assert results[0] == [] and results[2] == []
        assert [r.poi for r in results[1]] and set(
            r.poi for r in results[1]
        ) <= {1, 2, 3}
        # And it matches the single path on every slot.
        assert_batch_matches_loop(
            service, users, k=5, candidates=[[], [1, 2, 3], []]
        )


# ----------------------------------------------------------------------
# The per-row serving path that the batched one replaced, kept as an
# oracle: one k-NN call per default slate, one scalar haversine per
# recommendation, one model call per row.
# ----------------------------------------------------------------------
def oracle_candidate_slate(service, session, exclude_visited):
    anchor = session.pois[-1]
    exclude = set(session.pois) if exclude_visited else {anchor}
    slate = service._index.nearest_excluding(anchor, service.num_candidates, exclude=exclude)
    if len(slate) == 0:
        slate = np.array(
            [p for p in range(1, service.dataset.num_pois + 1) if p != anchor],
            dtype=np.int64,
        )
    return slate


def oracle_package(service, session, slate, scores, k):
    order = np.argsort(-scores)[:k]
    cur_lat, cur_lon = service.dataset.poi_coords[session.pois[-1]]
    out = []
    for idx in order:
        poi = int(slate[idx])
        lat, lon = service.dataset.poi_coords[poi]
        out.append(
            Recommendation(
                poi=poi,
                score=float(scores[idx]),
                distance_km=float(haversine(cur_lat, cur_lon, lat, lon)),
            )
        )
    return out


def oracle_fallback(service, session, slate, k):
    cur_lat, cur_lon = service.dataset.poi_coords[session.pois[-1]]
    coords = service.dataset.poi_coords[slate]
    distances = haversine(cur_lat, cur_lon, coords[:, 0], coords[:, 1])
    order = np.lexsort((-service._popularity[slate], distances))[:k]
    return [
        Recommendation(poi=int(slate[i]), score=float(-distances[i]),
                       distance_km=float(distances[i]), degraded=True)
        for i in order
    ]


def oracle_rows(service, users, k, exclude_visited, candidates):
    out = []
    for i, user in enumerate(users):
        session = service.session(user)
        explicit = None if candidates is None else candidates[i]
        if explicit is None:
            slate = oracle_candidate_slate(service, session, exclude_visited)
        else:
            slate = np.asarray(list(explicit), dtype=np.int64)
        if slate.size == 0:
            out.append([])
            continue
        src, times = service._query_arrays(session)
        scores = service._score(src[None], times[None], slate[None], [user])[0]
        if np.all(np.isfinite(scores)):
            out.append(oracle_package(service, session, slate, scores, k))
        else:
            out.append(oracle_fallback(service, session, slate, k))
    return out


def assert_matches_oracle(service, users, k, exclude_visited=True, candidates=None):
    """ids, order, scores and ``degraded`` bitwise; ``distance_km`` to
    2 ulp: the per-row path squares 0-d values through ``pow``, which
    can be 1 ulp off the exact square the array path takes, and the
    haversine chain can double that (2 ulp seen at 500k POIs)."""
    want = oracle_rows(service, users, k, exclude_visited, candidates)
    got = service.recommend_batch(
        users, k=k, exclude_visited=exclude_visited, candidates=candidates
    )
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert [(r.poi, r.score, r.degraded) for r in g] == [
            (r.poi, r.score, r.degraded) for r in w
        ]
        np.testing.assert_array_max_ulp(
            np.array([r.distance_km for r in g], dtype=np.float64),
            np.array([r.distance_km for r in w], dtype=np.float64),
            maxulp=2,
        )
    return got


class PoisonedModel:
    """Wraps a model and returns NaN scores for every row whose last
    check-in is ``poison``."""

    def __init__(self, inner, poison):
        self.inner, self.poison = inner, poison

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def score_candidates(self, src, times, candidates):
        scores = np.array(self.inner.score_candidates(src, times, candidates))
        scores[src[:, -1] == self.poison] = np.nan
        return scores


class TestPerRowOracle:
    @pytest.mark.parametrize("exclude_visited", [True, False])
    def test_cache_hits_and_misses_in_one_batch(self, micro_dataset, exclude_visited):
        service = make_stisan_service(micro_dataset, enable_caches=True)
        users = micro_dataset.users()[:8]
        assert_matches_oracle(service, users, k=10, exclude_visited=exclude_visited)
        # Fresh check-ins invalidate three users' slates; the next batch
        # mixes their misses with the others' hits.
        for user in users[::3]:
            session = service.session(user)
            service.check_in(user, session.pois[0], session.times[-1] + 60.0)
        hits = service.caches.slates.stats.hits
        misses = service.caches.slates.stats.misses
        assert_matches_oracle(service, users, k=10, exclude_visited=exclude_visited)
        assert service.caches.slates.stats.hits - hits == 5
        assert service.caches.slates.stats.misses - misses == 3

    @pytest.mark.parametrize("enable_caches", [False, True])
    def test_explicit_slates_mixed_with_default_ones(self, micro_dataset, enable_caches, rng):
        service = make_stisan_service(micro_dataset, enable_caches)
        users = micro_dataset.users()[:6]
        ids = np.arange(1, micro_dataset.num_pois + 1)
        candidates = [
            list(rng.choice(ids, size=13, replace=False)), None,
            list(rng.choice(ids, size=4, replace=False)), None, [], [7],
        ]
        for exclude_visited in (True, False):
            assert_matches_oracle(service, users, k=10, exclude_visited=exclude_visited,
                                  candidates=candidates)

    def test_ragged_sessions_and_repeated_users(self, micro_dataset, rng):
        service = make_stisan_service(micro_dataset, enable_caches=True, num_candidates=35)
        fresh = grow_random_sessions(service, micro_dataset, rng, num_new_users=4)
        users = fresh[:2] + micro_dataset.users()[:3] + fresh[2:] + [fresh[0]]
        assert_matches_oracle(service, users, k=12)

    def test_poisoned_row(self, micro_dataset):
        service = make_stisan_service(micro_dataset, enable_caches=True)
        users = micro_dataset.users()[:5]
        poison = service.session(users[2]).pois[-1]
        assert all(service.session(u).pois[-1] != poison for u in users if u != users[2])
        service.model = PoisonedModel(service.model, poison)
        got = assert_matches_oracle(service, users, k=10)
        assert all(r.degraded for r in got[2])
        assert not any(r.degraded for row in got[:2] + got[3:] for r in row)
