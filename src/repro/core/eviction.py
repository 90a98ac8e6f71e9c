"""Cost-based cache eviction (Section 5.1, Algorithm 1 of the paper).

:class:`EvictionPolicy` is the interface every policy implements — the ReCache
Greedy-Dual variant below as well as the baselines in
:mod:`repro.core.policies`.  A policy is consulted by the cache manager with
the full set of resident entries and the number of bytes that must be freed; it
returns the entries to evict.

The ReCache policy follows Algorithm 1 faithfully:

1. recompute the benefit metric ``b(p)`` of every cached item from its current
   measurements (unless benefit recomputation is disabled, the ablation the
   paper reports costs up to 6%),
2. set ``H(p) = L(p) + b(p)`` and walk items in ascending ``H(p)`` order,
   collecting candidates until enough space would be reclaimed, updating the
   global baseline ``L``,
3. then actually evict the collected candidates in *descending size* order,
   stopping as soon as the space target is met — the knapsack-style heuristic
   that avoids evicting many more items than necessary — finishing with the
   smallest candidate that alone covers any remaining deficit.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.benefit import benefit_metric
from repro.core.cache_entry import CacheEntry


class EvictionPolicy:
    """Interface shared by all eviction policies.

    Policies are not synchronized on their own: every callback runs under the
    owning :class:`~repro.core.cache_manager.ReCache` instance's lock, which
    is what keeps mutable policy state such as the Greedy-Dual baseline
    consistent.
    """

    name = "abstract"

    def on_admit(self, entry: CacheEntry, sequence: int) -> None:
        """Called when ``entry`` is inserted into the cache."""

    def on_access(self, entry: CacheEntry, sequence: int) -> None:
        """Called when ``entry`` is reused by a query."""

    def on_evict(self, entry: CacheEntry) -> None:
        """Called after ``entry`` has been removed from the cache."""

    def choose_victims(
        self, entries: Sequence[CacheEntry], bytes_to_free: int
    ) -> list[CacheEntry]:
        """Return the entries to evict so that at least ``bytes_to_free`` bytes
        are reclaimed.  Implementations may return more than strictly needed
        (they must never return fewer bytes than requested unless the cache
        simply does not contain enough evictable data)."""
        raise NotImplementedError


def total_bytes(entries: Iterable[CacheEntry]) -> int:
    return sum(entry.nbytes for entry in entries)


def size_aware_victims(
    candidates: Sequence[CacheEntry], bytes_to_free: int
) -> list[CacheEntry]:
    """The phase-2 size-aware trim shared by all benefit-ranked evictions.

    Among candidates the ranking phase already marked evictable, evict in
    descending size order so that far fewer items are actually removed.  After
    each eviction, if a single smaller candidate covers the remaining deficit
    on its own, evict that one (the smallest such candidate, since the pool is
    kept in ascending size order) and stop — the paper's final refinement step.
    """
    pool = sorted(candidates, key=lambda e: e.nbytes)
    victims: list[CacheEntry] = []
    remaining = bytes_to_free
    while remaining > 0 and pool:
        largest = pool.pop()  # largest remaining candidate
        victims.append(largest)
        remaining -= largest.nbytes
        if remaining <= 0:
            break
        closer = next((e for e in pool if e.nbytes >= remaining), None)
        if closer is not None:
            victims.append(closer)
            remaining -= closer.nbytes
            break
    return victims


class ReCacheGreedyDualPolicy(EvictionPolicy):
    """ReCache's Greedy-Dual variant with the size-aware eviction heuristic."""

    name = "recache"

    def __init__(self, recompute_benefit: bool = True, size_aware: bool = True) -> None:
        #: the Greedy-Dual global baseline ``L``
        self.baseline = 0.0
        self.recompute_benefit = recompute_benefit
        #: disable the descending-size phase-2 heuristic to fall back to the
        #: plain Greedy-Dual eviction order (ablation bench)
        self.size_aware = size_aware

    # ------------------------------------------------------------------
    # Greedy-Dual bookkeeping
    # ------------------------------------------------------------------
    def on_admit(self, entry: CacheEntry, sequence: int) -> None:
        entry.gd_baseline = self.baseline
        if not self.recompute_benefit:
            entry.frozen_benefit = benefit_metric(entry)

    def on_access(self, entry: CacheEntry, sequence: int) -> None:
        # Accessing an item refreshes its baseline: its H value regains the
        # full benefit on top of the current global L.
        entry.gd_baseline = self.baseline
        if not self.recompute_benefit and entry.frozen_benefit is None:
            entry.frozen_benefit = benefit_metric(entry)

    def _benefit(self, entry: CacheEntry) -> float:
        if self.recompute_benefit or entry.frozen_benefit is None:
            return benefit_metric(entry)
        return entry.frozen_benefit

    def h_value(self, entry: CacheEntry) -> float:
        """``H(p) = L(p) + b(p)`` for one cached item."""
        return entry.gd_baseline + self._benefit(entry)

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def choose_victims(
        self, entries: Sequence[CacheEntry], bytes_to_free: int
    ) -> list[CacheEntry]:
        if bytes_to_free <= 0 or not entries:
            return []

        # Phase 1: walk items in ascending H(p) order, collecting candidates
        # until their combined size covers the deficit; L advances to the
        # largest H(p) among the collected candidates.
        ranked = sorted(entries, key=self.h_value)
        candidates: list[CacheEntry] = []
        freed = 0
        new_baseline = self.baseline
        for entry in ranked:
            if freed >= bytes_to_free:
                break
            candidates.append(entry)
            freed += entry.nbytes
            h = self.h_value(entry)
            if h > new_baseline:
                new_baseline = h
        if freed < bytes_to_free:
            # Not enough evictable data: everything goes.
            self.baseline = new_baseline
            return candidates
        self.baseline = new_baseline
        if not self.size_aware:
            return candidates

        # Phase 2: among the candidates (all of which the original algorithm
        # would have evicted), apply the shared size-aware trim.
        return size_aware_victims(candidates, bytes_to_free)
