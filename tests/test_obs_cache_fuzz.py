"""Fuzz suite for ServingCaches invalidation under random interleavings.

Random sequences of ``check_in`` / ``recommend`` / ``recommend_batch``
are driven against two oracles:

- a **twin service** (identical weights, caches disabled) — every
  recommendation from the cached service must match it exactly, so a
  stale slate/relation entry can never be served;
- an **independent replay simulator** of the slate cache (a ~40-line
  LRU with owner tags, written here, sharing no code with
  ``repro.core.cache``) — the real cache's hit/miss/eviction/
  invalidation counters must reconcile with the replay, and the
  ``repro.obs`` registry counters must agree with the per-instance
  ``CacheStats`` deltas.

Cache capacities are deliberately tiny so evictions actually happen.
"""

from collections import OrderedDict

import numpy as np
import pytest

from repro import obs
from repro.core import RecommendationService, ServingCaches, STiSANConfig
from repro.core.stisan import STiSAN
from repro.obs import REGISTRY, observability

MAX_LEN = 8
SLATE_SIZE = 4          # tiny: forces LRU evictions under the fuzz load
RELATION_SIZE = 4
NUM_CANDIDATES = 12


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def make_model(dataset, seed=0):
    cfg = STiSANConfig.small(
        max_len=MAX_LEN, poi_dim=8, geo_dim=8, num_blocks=1, dropout=0.0
    )
    model = STiSAN(dataset.num_pois, dataset.poi_coords, cfg,
                   rng=np.random.default_rng(seed))
    model.eval()
    return model


class SlateCacheReplay:
    """Ground-truth replay of one LRU-with-owner-tags cache.

    Independent reimplementation of the semantics ``LRUCache`` promises:
    ``get`` refreshes recency and counts a hit or miss; ``put`` inserts
    (retagging on overwrite) and evicts least-recently-used entries past
    ``maxsize``; owner invalidation drops every live entry tagged to the
    owner.  Counter names mirror :class:`repro.core.cache.CacheStats`.
    """

    def __init__(self, maxsize):
        self.maxsize = maxsize
        self.entries = OrderedDict()        # key -> owner
        self.hits = self.misses = self.evictions = self.invalidations = 0

    def lookup_then_fill(self, key, owner):
        if key in self.entries:
            self.entries.move_to_end(key)
            self.hits += 1
            return
        self.misses += 1
        self.entries[key] = owner
        self.entries.move_to_end(key)
        while len(self.entries) > self.maxsize:
            self.entries.popitem(last=False)
            self.evictions += 1

    def invalidate_owner(self, owner):
        stale = [k for k, o in self.entries.items() if o == owner]
        for key in stale:
            del self.entries[key]
            self.invalidations += 1

    def counters(self):
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }


def slate_key(service, user):
    """The slate-cache key ``_candidate_slate`` derives for a user's
    next default query (kept in sync with ``service.py`` by this suite:
    if the key recipe changes, reconciliation fails loudly)."""
    session = service.session(user)
    return (user, session.pois[-1], service.num_candidates, True, len(session))


def run_interleaving(seed, dataset, cached, plain, replay):
    """Drive both services through one random op sequence; returns the
    number of recommendations compared."""
    rng = np.random.default_rng(seed)
    users = dataset.users()
    compared = 0
    for _ in range(120):
        op = rng.choice(["single", "batch", "checkin"], p=[0.45, 0.3, 0.25])
        if op == "single":
            user = int(users[rng.integers(len(users))])
            replay.lookup_then_fill(slate_key(cached, user), user)
            got = cached.recommend(user, k=5)
            want = plain.recommend(user, k=5)
            assert [(r.poi, r.score) for r in got] == [
                (r.poi, r.score) for r in want
            ], f"stale serve for user {user} (seed {seed})"
            compared += 1
        elif op == "batch":
            size = int(rng.integers(2, min(5, len(users)) + 1))
            batch = [int(u) for u in rng.choice(users, size=size, replace=False)]
            for user in batch:
                replay.lookup_then_fill(slate_key(cached, user), user)
            got = cached.recommend_batch(batch, k=5)
            want = [plain.recommend(u, k=5) for u in batch]
            for user, g, w in zip(batch, got, want):
                assert [(r.poi, r.score) for r in g] == [
                    (r.poi, r.score) for r in w
                ], f"stale batch serve for user {user} (seed {seed})"
                compared += 1
        else:
            user = int(users[rng.integers(len(users))])
            session = cached.session(user)
            poi = int(rng.integers(1, dataset.num_pois + 1))
            if poi == session.pois[-1]:
                poi = poi % dataset.num_pois + 1
            t = session.times[-1] + float(rng.integers(60, 7200))
            cached.check_in(user, poi, t)
            plain.check_in(user, poi, t)
            replay.invalidate_owner(user)
    return compared


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fuzzed_interleavings_never_serve_stale_and_counters_reconcile(
    micro_dataset, seed
):
    caches = ServingCaches(slate_size=SLATE_SIZE, relation_size=RELATION_SIZE)
    cached = RecommendationService(
        make_model(micro_dataset), micro_dataset, max_len=MAX_LEN,
        num_candidates=NUM_CANDIDATES, caches=caches,
    )
    plain = RecommendationService(
        make_model(micro_dataset), micro_dataset, max_len=MAX_LEN,
        num_candidates=NUM_CANDIDATES, enable_caches=False,
    )
    replay = SlateCacheReplay(maxsize=SLATE_SIZE)

    with observability():
        obs.reset()
        compared = run_interleaving(seed, micro_dataset, cached, plain, replay)

    assert compared > 50  # the interleaving actually exercised serving

    # --- replay reconciliation: the slate cache behaved exactly like the
    # independent simulator says an owner-tagged LRU must.
    stats = caches.slates.stats
    assert {
        "hits": stats.hits,
        "misses": stats.misses,
        "evictions": stats.evictions,
        "invalidations": stats.invalidations,
    } == replay.counters()
    assert stats.evictions > 0, "fuzz load never filled the cache"
    assert stats.invalidations > 0, "fuzz load never invalidated"
    assert set(caches.slates._data) == set(replay.entries)

    # --- obs reconciliation: the global registry mirrored every event
    # CacheStats saw, for every cache in the bundle.
    for cache in (caches.slates, caches.relations):
        for kind, metric in cache._OBS_COUNTERS.items():
            recorded = REGISTRY.value(metric, {"cache": cache.name}) or 0.0
            assert recorded == getattr(cache.stats, kind), (
                f"{cache.name}.{kind}: obs={recorded} stats={getattr(cache.stats, kind)}"
            )


def test_counters_still_reconcile_when_obs_flips_mid_run(micro_dataset):
    """Toggling observability mid-interleaving must never desync the
    registry deltas from the CacheStats deltas within enabled windows."""
    caches = ServingCaches(slate_size=SLATE_SIZE, relation_size=RELATION_SIZE)
    service = RecommendationService(
        make_model(micro_dataset), micro_dataset, max_len=MAX_LEN,
        num_candidates=NUM_CANDIDATES, caches=caches,
    )
    users = [int(u) for u in micro_dataset.users()[:4]]
    rng = np.random.default_rng(9)

    def snapshot():
        return {
            (c.name, kind): (REGISTRY.value(metric, {"cache": c.name}) or 0.0,
                             getattr(c.stats, kind))
            for c in (caches.slates, caches.relations)
            for kind, metric in c._OBS_COUNTERS.items()
        }

    obs.reset()
    for round_no in range(6):
        enabled = round_no % 2 == 0
        with observability(enabled=enabled):
            before = snapshot()
            service.recommend_batch(users, k=5)
            user = users[int(rng.integers(len(users)))]
            t = service.session(user).times[-1] + 3600.0
            poi = 1 if service.session(user).pois[-1] != 1 else 2
            service.check_in(user, poi, t)
            after = snapshot()
        for key in before:
            obs_delta = after[key][0] - before[key][0]
            stats_delta = after[key][1] - before[key][1]
            if enabled:
                assert obs_delta == stats_delta, key
            else:
                assert obs_delta == 0, key
