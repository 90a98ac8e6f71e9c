"""Baseline eviction policies compared against ReCache in Figure 14.

* :class:`LRUPolicy` / :class:`LFUPolicy` — the classic history-based policies.
* :class:`ProteusLRUPolicy` — Proteus' heuristic [28]: LRU, but JSON-derived
  caches are assumed to be costlier than CSV-derived ones, so CSV items are
  evicted first.
* :class:`VectorwisePolicy` — the cost-based recycler of Nagel et al. [37]:
  items are ranked by saved-cost-per-byte times reuse frequency.
* :class:`MonetDBPolicy` — the intermediate-recycling policy of Ivanova et
  al. [26]: frequency times weight, with the per-item weight capped so one
  pathological measurement cannot dominate.
* :class:`OfflineFarthestFirstPolicy` — Belady's clairvoyant policy: evict the
  item whose next access lies farthest in the future (optimal for unit-cost
  items).
* :class:`OfflineLogOptimalPolicy` — Irani's size-aware offline heuristic,
  which groups items into power-of-two size classes and applies farthest-first
  weighted by size class.

The offline policies need to be told the future: the workload runner calls
:meth:`OfflinePolicy.set_future_accesses` with the full access sequence before
execution starts.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Sequence

from repro.core.cache_entry import CacheEntry
from repro.core.eviction import EvictionPolicy, ReCacheGreedyDualPolicy


def _greedy_take(ordered: Sequence[CacheEntry], bytes_to_free: int) -> list[CacheEntry]:
    """Take entries from ``ordered`` until enough bytes are covered."""
    victims: list[CacheEntry] = []
    freed = 0
    for entry in ordered:
        if freed >= bytes_to_free:
            break
        victims.append(entry)
        freed += entry.nbytes
    return victims


class LRUPolicy(EvictionPolicy):
    """Evict the least recently used entries first."""

    name = "lru"

    def choose_victims(
        self, entries: Sequence[CacheEntry], bytes_to_free: int
    ) -> list[CacheEntry]:
        ordered = sorted(entries, key=lambda e: e.stats.last_access)
        return _greedy_take(ordered, bytes_to_free)


class LFUPolicy(EvictionPolicy):
    """Evict the least frequently used entries first (ties broken by recency)."""

    name = "lfu"

    def choose_victims(
        self, entries: Sequence[CacheEntry], bytes_to_free: int
    ) -> list[CacheEntry]:
        ordered = sorted(entries, key=lambda e: (e.stats.access_count, e.stats.last_access))
        return _greedy_take(ordered, bytes_to_free)


class ProteusLRUPolicy(EvictionPolicy):
    """LRU with the static assumption that JSON caches are costlier than CSV.

    CSV-derived entries are always preferred as victims; within each format
    class ordering is by recency.
    """

    name = "proteus-lru"

    def choose_victims(
        self, entries: Sequence[CacheEntry], bytes_to_free: int
    ) -> list[CacheEntry]:
        ordered = sorted(
            entries,
            key=lambda e: (0 if e.source_format == "csv" else 1, e.stats.last_access),
        )
        return _greedy_take(ordered, bytes_to_free)


class VectorwisePolicy(EvictionPolicy):
    """Cost-based recycling in the style of Vectorwise [37].

    Each item is scored by the cost it saves per byte of cache space, scaled by
    how often it has been reused; the lowest scores are evicted first.
    """

    name = "vectorwise"

    @staticmethod
    def score(entry: CacheEntry) -> float:
        saved = entry.stats.operator_time + entry.stats.caching_time
        frequency = max(1, entry.stats.access_count)
        return saved * frequency / max(1, entry.nbytes)

    def choose_victims(
        self, entries: Sequence[CacheEntry], bytes_to_free: int
    ) -> list[CacheEntry]:
        ordered = sorted(entries, key=self.score)
        return _greedy_take(ordered, bytes_to_free)


#: MonetDB's per-item weight is capped at this multiple of the median weight
WEIGHT_CAP_FACTOR = 4.0


class MonetDBPolicy(EvictionPolicy):
    """Frequency-and-weight recycling in the style of MonetDB [26].

    The per-item weight (its reconstruction cost) is capped at a multiple of
    the median weight across resident items, which bounds the worst case and —
    as the paper observes — makes the policy competitive with ReCache for most
    cache sizes.
    """

    name = "monetdb"

    def choose_victims(
        self, entries: Sequence[CacheEntry], bytes_to_free: int
    ) -> list[CacheEntry]:
        weights = sorted(
            entry.stats.operator_time + entry.stats.caching_time for entry in entries
        )
        median = weights[len(weights) // 2] if weights else 0.0
        cap = WEIGHT_CAP_FACTOR * median if median > 0 else float("inf")

        def score(entry: CacheEntry) -> float:
            weight = min(cap, entry.stats.operator_time + entry.stats.caching_time)
            frequency = max(1, entry.stats.access_count)
            return weight * frequency / max(1, entry.nbytes)

        ordered = sorted(entries, key=score)
        return _greedy_take(ordered, bytes_to_free)


class OfflinePolicy(EvictionPolicy):
    """Shared machinery for the clairvoyant policies: future access knowledge."""

    def __init__(self) -> None:
        #: for each cache-key string, the ascending list of query sequence
        #: numbers at which the key will be accessed.
        self._future: dict[str, list[int]] = {}
        self._now = 0

    def set_future_accesses(self, accesses: dict[str, list[int]]) -> None:
        """Install the full access schedule (key string -> sorted positions)."""
        self._future = {key: sorted(positions) for key, positions in accesses.items()}

    def advance_to(self, sequence: int) -> None:
        """Tell the policy what the current query sequence number is."""
        self._now = sequence

    def next_access(self, entry: CacheEntry) -> float:
        """Position of the entry's next access after now; +inf if never again."""
        positions = self._future.get(entry.key.as_string(), [])
        index = bisect_right(positions, self._now)
        if index >= len(positions):
            return math.inf
        return positions[index]


class OfflineFarthestFirstPolicy(OfflinePolicy):
    """Belady's algorithm: evict the item accessed farthest in the future."""

    name = "offline-farthest"

    def choose_victims(
        self, entries: Sequence[CacheEntry], bytes_to_free: int
    ) -> list[CacheEntry]:
        ordered = sorted(entries, key=self.next_access, reverse=True)
        return _greedy_take(ordered, bytes_to_free)


class OfflineLogOptimalPolicy(OfflinePolicy):
    """Irani's size-class heuristic for weighted offline caching [24].

    Items are bucketed by ``floor(log2(size))``; within a bucket the farthest
    next access is the most evictable.  Across buckets, larger classes are
    preferred as victims because evicting one large item frees as much space as
    evicting many small ones, which is how the algorithm achieves its
    logarithmic approximation factor.
    """

    name = "offline-log-optimal"

    def choose_victims(
        self, entries: Sequence[CacheEntry], bytes_to_free: int
    ) -> list[CacheEntry]:
        def key(entry: CacheEntry) -> tuple[float, float]:
            size_class = math.floor(math.log2(max(2, entry.nbytes)))
            return (self.next_access(entry), size_class)

        ordered = sorted(entries, key=key, reverse=True)
        return _greedy_take(ordered, bytes_to_free)


_POLICY_FACTORIES = {
    "recache": ReCacheGreedyDualPolicy,
    "lru": LRUPolicy,
    "lfu": LFUPolicy,
    "proteus-lru": ProteusLRUPolicy,
    "vectorwise": VectorwisePolicy,
    "monetdb": MonetDBPolicy,
    "offline-farthest": OfflineFarthestFirstPolicy,
    "offline-log-optimal": OfflineLogOptimalPolicy,
}


def make_policy(name: str, recompute_benefit: bool = True) -> EvictionPolicy:
    """Instantiate an eviction policy by its configuration name."""
    try:
        factory = _POLICY_FACTORIES[name]
    except KeyError as exc:
        raise ValueError(
            f"unknown eviction policy {name!r}; expected one of {sorted(_POLICY_FACTORIES)}"
        ) from exc
    if name == "recache":
        return ReCacheGreedyDualPolicy(recompute_benefit=recompute_benefit)
    return factory()
