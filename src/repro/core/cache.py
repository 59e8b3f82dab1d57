"""Serving-side caches for the recommendation service.

The numpy engine pays a fixed per-op overhead on every forward pass, so
the serving path wins twice: once by batching queries into a single
``(B, n)`` model call and once by not recomputing request-invariant
intermediates.  Two of those are cached:

- **candidate slates** — a KD-tree sweep around the anchor POI; stable
  between check-ins of a user;
- **relation matrices** — the clipped ``(n, n)`` spatial-temporal
  matrix of a source sequence; stable while the sequence is.

Geography encodings need no cache: the geography encoder encodes each
distinct POI of a call once and gathers the rows.

Each gets an :class:`LRUCache` with hit/miss statistics; the
:class:`ServingCaches` bundle adds *owner tagging* so that a user's
check-in can surgically invalidate exactly the entries derived from
that user's session (wired into ``RecommendationService.check_in``).

Accounting lives in :mod:`repro.obs`: when the observability layer is
enabled every hit / miss / eviction / invalidation also increments the
global ``repro_cache_*_total`` counters (labelled by cache name), so
cache behaviour shows up in the Prometheus/JSON exports next to span
latencies.  :class:`CacheStats` remains as the per-instance view of
the same events — the fuzz suite reconciles both surfaces against a
ground-truth replay of the interleaving.

Caching never changes results: slate keys include the session length
and relation keys hash the sequence content — the batch-vs-single
equivalence suite asserts bitwise identical scores with caches on and
off.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Sequence

from ..faults import state as _faults
from ..obs import REGISTRY
from ..obs import state as _obs

__all__ = ["CacheStats", "LRUCache", "ServingCaches"]


@dataclass
class CacheStats:
    """Counters for one cache (monotonic until :meth:`reset`)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def reset(self) -> None:
        self.hits = self.misses = self.evictions = self.invalidations = 0

    def __str__(self) -> str:
        return (
            f"hits={self.hits} misses={self.misses} "
            f"hit_rate={self.hit_rate:.1%} evictions={self.evictions} "
            f"invalidations={self.invalidations}"
        )


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    Entries may be tagged with an *owner* (any hashable, typically a
    user id); :meth:`invalidate_owner` then drops every entry the owner
    produced.  Values are treated as immutable by convention — callers
    must not mutate what they ``get``.
    """

    #: observability counter families, keyed by CacheStats field name.
    _OBS_COUNTERS = {
        "hits": "repro_cache_hits_total",
        "misses": "repro_cache_misses_total",
        "evictions": "repro_cache_evictions_total",
        "invalidations": "repro_cache_invalidations_total",
    }

    def __init__(self, maxsize: int = 1024, name: str = ""):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.name = name
        self.maxsize = int(maxsize)
        self.stats = CacheStats()
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._owner_keys: Dict[Hashable, set] = {}
        self._key_owner: Dict[Hashable, Hashable] = {}

    def _obs_inc(self, kind: str) -> None:
        """Mirror one cache event into the global metrics registry."""
        REGISTRY.counter(self._OBS_COUNTERS[kind], {"cache": self.name or "unnamed"}).inc()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value, or None on a miss (counted either way)."""
        try:
            value = self._data[key]
        except KeyError:
            self.stats.misses += 1
            if _obs._enabled:
                self._obs_inc("misses")
            return None
        if _faults._plan is not None:
            # Fault-injection seam: a hit may come back corrupted, or be
            # treated as evicted (the entry is really dropped, so the
            # caller's recompute repopulates it like any cold miss).
            value = _faults._plan.on_cache_get(self.name, key, value)
            if value is None:
                del self._data[key]
                self._untag(key)
                self.stats.misses += 1
                if _obs._enabled:
                    self._obs_inc("misses")
                return None
        self._data.move_to_end(key)
        self.stats.hits += 1
        if _obs._enabled:
            self._obs_inc("hits")
        return value

    def put(self, key: Hashable, value: Any, owner: Optional[Hashable] = None) -> None:
        """Insert ``value`` under ``key``, evicting LRU entries as needed."""
        if key in self._data:
            self._untag(key)
        self._data[key] = value
        self._data.move_to_end(key)
        if owner is not None:
            self._owner_keys.setdefault(owner, set()).add(key)
            self._key_owner[key] = owner
        while len(self._data) > self.maxsize:
            old_key, _ = self._data.popitem(last=False)
            self._untag(old_key)
            self.stats.evictions += 1
            if _obs._enabled:
                self._obs_inc("evictions")

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; True when it existed."""
        if key not in self._data:
            return False
        del self._data[key]
        self._untag(key)
        self.stats.invalidations += 1
        if _obs._enabled:
            self._obs_inc("invalidations")
        return True

    def invalidate_owner(self, owner: Hashable) -> int:
        """Drop every entry tagged to ``owner``; returns the count."""
        keys = self._owner_keys.pop(owner, None)
        if not keys:
            return 0
        for key in keys:
            self._data.pop(key, None)
            self._key_owner.pop(key, None)
            self.stats.invalidations += 1
            if _obs._enabled:
                self._obs_inc("invalidations")
        return len(keys)

    def clear(self) -> None:
        """Drop every entry (statistics are kept; see ``stats.reset``)."""
        self._data.clear()
        self._owner_keys.clear()
        self._key_owner.clear()

    def _untag(self, key: Hashable) -> None:
        owner = self._key_owner.pop(key, None)
        if owner is not None:
            keys = self._owner_keys.get(owner)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._owner_keys[owner]


class ServingCaches:
    """The cache bundle a :class:`RecommendationService` threads through
    a query: candidate slates and per-sequence relation matrices.

    ``row_owners`` carries the user behind each batch row across the
    model-call boundary (set via :meth:`rows`), so cache entries written
    deep inside the model can still be invalidated per user.
    """

    def __init__(
        self,
        slate_size: int = 4096,
        relation_size: int = 2048,
    ):
        self.slates = LRUCache(slate_size, name="slates")
        self.relations = LRUCache(relation_size, name="relations")
        self.row_owners: Optional[List[Hashable]] = None

    # ------------------------------------------------------------------
    @contextmanager
    def rows(self, owners: Sequence[Hashable]):
        """Tag the rows of the next model call with their owners."""
        prev = self.row_owners
        self.row_owners = list(owners)
        try:
            yield self
        finally:
            self.row_owners = prev

    # ------------------------------------------------------------------
    def invalidate_user(self, user: Hashable) -> int:
        """Drop every session-derived entry of ``user`` (slates and
        relation matrices)."""
        return self.slates.invalidate_owner(user) + self.relations.invalidate_owner(user)

    def clear(self) -> None:
        for cache in self._members():
            cache.clear()

    def reset_stats(self) -> None:
        for cache in self._members():
            cache.stats.reset()

    def stats(self) -> Dict[str, CacheStats]:
        stats = {cache.name: cache.stats for cache in self._members()}
        # The benchmark reads a "geo" entry; there is no geo cache, so it stays idle.
        stats["geo"] = CacheStats()
        return stats

    def hit_rates(self) -> Dict[str, float]:
        return {cache.name: cache.stats.hit_rate for cache in self._members()}

    def _members(self) -> List[LRUCache]:
        return [self.slates, self.relations]

    def __str__(self) -> str:
        return "; ".join(f"{c.name}: {c.stats}" for c in self._members())
