"""Serving-cache correctness and service edge cases.

The cache layer must be invisible: a check-in invalidates the user's
slate/relation entries (and slate keys embed the session length, so a
stale hit is unrepresentable even without invalidation), and scores
after a session mutation are identical to a cache-free service.  Plus
the LRU mechanics themselves and the ``RecommendationService`` corner
cases: k larger than the slate, duplicate candidate ids, single
check-in sessions, and the degenerate-catalogue fallback slate.
"""

import numpy as np
import pytest

from repro.core import LRUCache, RecommendationService, ServingCaches, STiSANConfig
from repro.core.stisan import STiSAN

MAX_LEN = 10


def make_service(dataset, enable_caches=True, num_candidates=20, seed=0):
    cfg = STiSANConfig.small(max_len=MAX_LEN, poi_dim=8, geo_dim=8, num_blocks=1, dropout=0.0)
    model = STiSAN(dataset.num_pois, dataset.poi_coords, cfg, rng=np.random.default_rng(seed))
    model.eval()
    return RecommendationService(
        model, dataset, max_len=MAX_LEN,
        num_candidates=num_candidates, enable_caches=enable_caches,
    )


def as_tuples(recs):
    return [(r.poi, r.score) for r in recs]


class TestLRUCache:
    def test_get_put_and_stats(self):
        cache = LRUCache(maxsize=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh a; b is now LRU
        cache.put("c", 3)
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.stats.evictions == 1

    def test_invalidate_single_key(self):
        cache = LRUCache(maxsize=4)
        cache.put("a", 1)
        assert cache.invalidate("a")
        assert not cache.invalidate("a")
        assert cache.get("a") is None

    def test_owner_invalidation(self):
        cache = LRUCache(maxsize=8)
        cache.put("a1", 1, owner="alice")
        cache.put("a2", 2, owner="alice")
        cache.put("b1", 3, owner="bob")
        assert cache.invalidate_owner("alice") == 2
        assert "a1" not in cache and "a2" not in cache and "b1" in cache
        assert cache.invalidate_owner("alice") == 0

    def test_eviction_drops_owner_tag(self):
        cache = LRUCache(maxsize=1)
        cache.put("a", 1, owner="alice")
        cache.put("b", 2, owner="alice")   # evicts "a"
        assert cache.invalidate_owner("alice") == 1  # only "b" remains tagged

    def test_overwrite_retags_owner(self):
        cache = LRUCache(maxsize=4)
        cache.put("k", 1, owner="alice")
        cache.put("k", 2, owner="bob")
        assert cache.invalidate_owner("alice") == 0
        assert cache.invalidate_owner("bob") == 1

    def test_maxsize_validation(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)

    def test_serving_caches_bundle(self):
        caches = ServingCaches(slate_size=2, relation_size=2)
        caches.slates.put("s", 1, owner=7)
        caches.relations.put("r", 2, owner=7)
        caches.slates.put("t", 3, owner=8)
        caches.relations.put("u", 4)
        assert caches.invalidate_user(7) == 2
        assert caches.slates.get("t") == 3  # other owners' entries survive
        assert caches.relations.get("u") == 4
        caches.clear()
        assert len(caches.slates) == 0 and len(caches.relations) == 0
        assert set(caches.hit_rates()) == {"slates", "relations"}
        stats = caches.stats()
        assert stats["slates"].hits == 1 and stats["relations"].hits == 1
        # The benchmark reads a "geo" entry: it stays an idle CacheStats.
        assert stats["geo"].lookups == 0


class TestCheckInInvalidation:
    def test_check_in_drops_user_entries(self, micro_dataset):
        service = make_service(micro_dataset)
        user = micro_dataset.users()[0]
        service.recommend(user, k=5)           # populates slate + relation caches
        assert len(service.caches.slates) > 0
        before_slates = len(service.caches.slates)
        before_relations = len(service.caches.relations)
        t = service.session(user).times[-1] + 3600.0
        service.check_in(user, 1 if service.session(user).pois[-1] != 1 else 2, t)
        assert len(service.caches.slates) < before_slates
        assert len(service.caches.relations) < before_relations
        assert service.caches.slates.stats.invalidations > 0

    def test_check_in_keeps_other_users(self, micro_dataset):
        service = make_service(micro_dataset)
        u1, u2 = micro_dataset.users()[:2]
        service.recommend_batch([u1, u2], k=5)
        t = service.session(u1).times[-1] + 3600.0
        service.check_in(u1, 1 if service.session(u1).pois[-1] != 1 else 2, t)
        # u2's next query is served warm, u1's is recomputed.
        before = service.caches.slates.stats.misses
        service.recommend(u2, k=5)
        assert service.caches.slates.stats.misses == before
        service.recommend(u1, k=5)
        assert service.caches.slates.stats.misses == before + 1

    def test_mutation_yields_fresh_scores(self, micro_dataset):
        """check_in -> recommend must equal an identical cache-free service."""
        cached = make_service(micro_dataset, enable_caches=True)
        plain = make_service(micro_dataset, enable_caches=False)
        user = micro_dataset.users()[1]
        cached.recommend(user, k=5)            # warm the caches
        plain.recommend(user, k=5)
        poi = 1 if cached.session(user).pois[-1] != 1 else 2
        t = cached.session(user).times[-1] + 7200.0
        cached.check_in(user, poi, t)
        plain.check_in(user, poi, t)
        assert as_tuples(cached.recommend(user, k=5)) == as_tuples(plain.recommend(user, k=5))

    def test_direct_session_append_cannot_serve_stale_slate(self, micro_dataset):
        """Even bypassing check_in (no invalidation), the session length
        in the slate key forces a fresh slate: staleness is unrepresentable."""
        cached = make_service(micro_dataset, enable_caches=True)
        plain = make_service(micro_dataset, enable_caches=False)
        user = micro_dataset.users()[2]
        cached.recommend(user, k=5)
        poi = 1 if cached.session(user).pois[-1] != 1 else 2
        t = cached.session(user).times[-1] + 7200.0
        cached.session(user).append(poi, t)    # bypasses invalidation on purpose
        plain.session(user).append(poi, t)
        assert as_tuples(cached.recommend(user, k=5)) == as_tuples(plain.recommend(user, k=5))

    def test_batch_after_mutation_matches_loop(self, micro_dataset):
        service = make_service(micro_dataset, enable_caches=True)
        users = micro_dataset.users()[:4]
        service.recommend_batch(users, k=5)
        target = users[2]
        t = service.session(target).times[-1] + 3600.0
        service.check_in(target, 1 if service.session(target).pois[-1] != 1 else 2, t)
        looped = [as_tuples(service.recommend(u, k=5)) for u in users]
        batched = [as_tuples(r) for r in service.recommend_batch(users, k=5)]
        assert looped == batched


class TestServiceEdgeCases:
    def test_k_larger_than_slate(self, micro_dataset):
        service = make_service(micro_dataset, num_candidates=5)
        user = micro_dataset.users()[0]
        recs = service.recommend(user, k=50)
        assert len(recs) == 5                 # every candidate, ranked
        batch = service.recommend_batch([user], k=50)[0]
        assert as_tuples(batch) == as_tuples(recs)

    def test_duplicate_candidate_ids_preserved(self, micro_dataset):
        service = make_service(micro_dataset)
        user = micro_dataset.users()[0]
        recs = service.recommend(user, k=4, candidates=[5, 5, 7, 5])
        assert len(recs) == 4
        assert sorted(r.poi for r in recs) == [5, 5, 5, 7]
        batch = service.recommend_batch([user], k=4, candidates=[[5, 5, 7, 5]])[0]
        assert as_tuples(batch) == as_tuples(recs)

    def test_single_checkin_session(self, micro_dataset):
        service = make_service(micro_dataset)
        user = 77_777
        service.check_in(user, 3, 1.0e9)
        recs = service.recommend(user, k=5)
        assert 1 <= len(recs) <= 5
        assert all(r.poi != 3 for r in recs)  # anchor itself excluded
        batch = service.recommend_batch([user], k=5)[0]
        assert as_tuples(batch) == as_tuples(recs)

    def test_degenerate_catalogue_fallback(self, micro_dataset):
        """A user who has visited every POI hits the fallback slate
        (service excludes everything -> nearest search is empty)."""
        service = make_service(micro_dataset)
        user = 88_888
        t = 1.0e9
        for poi in range(1, micro_dataset.num_pois + 1):
            service.check_in(user, poi, t)
            t += 3600.0
        recs = service.recommend(user, k=5, exclude_visited=True)
        anchor = service.session(user).pois[-1]
        assert len(recs) == 5                 # fallback: everything but the anchor
        assert all(r.poi != anchor for r in recs)
        batch = service.recommend_batch([user], k=5)[0]
        assert as_tuples(batch) == as_tuples(recs)

    def test_empty_candidates_single(self, micro_dataset):
        service = make_service(micro_dataset)
        assert service.recommend(micro_dataset.users()[0], k=5, candidates=[]) == []
