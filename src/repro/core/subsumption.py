"""Query subsumption support for range predicates (Section 3.3).

ReCache reuses a cached selection result for a *different* query when the
cached predicate's range fully covers the new predicate's range.  To avoid a
linear scan over all cached items, the index below keeps one R-tree per
(source, numeric field) pair and inserts the bounding interval of every cached
range predicate.  A lookup then asks each field's tree for the cached entries
whose interval contains the new interval and intersects the candidate sets —
logarithmic in the number of cached predicates.

The index can also operate without the R-tree (``use_rtree=False``), falling
back to the naive linear scan; the ablation bench compares the two.

The index itself is not synchronized: every call happens under the owning
:class:`~repro.core.cache_manager.ReCache` instance's lock, which also keeps
the timing counters consistent.
"""

from __future__ import annotations

import math
import time

from repro.core.cache_entry import CacheEntry
from repro.engine.expressions import Expression, extract_ranges, predicate_subsumes
from repro.rtree import Rect, RTree

#: numeric stand-ins for unbounded interval ends when building R-tree boxes
_NEG_BOUND = -1e18
_POS_BOUND = 1e18


def _interval_rect(low: float, high: float) -> Rect:
    low = _NEG_BOUND if math.isinf(low) and low < 0 else low
    high = _POS_BOUND if math.isinf(high) and high > 0 else high
    return Rect.from_interval(low, high)


class SubsumptionIndex:
    """Finds cached entries whose predicate subsumes a new predicate."""

    def __init__(self, use_rtree: bool = True, max_entries: int = 8) -> None:
        self.use_rtree = use_rtree
        self._max_entries = max_entries
        #: (source, field) -> R-tree of (interval rect, entry)
        self._trees: dict[tuple[str, str], RTree] = {}
        #: per-source entries whose predicate has no analysable range (e.g.
        #: full scans); they subsume everything over the same source.
        self._unconstrained: dict[str, list[CacheEntry]] = {}
        #: all registered entries per source (the linear-scan fallback)
        self._by_source: dict[str, list[CacheEntry]] = {}
        #: cumulative seconds spent inserting into the index (the paper reports
        #: 2-15 microseconds per insertion)
        self.insert_seconds = 0.0
        self.lookup_seconds = 0.0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, entry: CacheEntry) -> None:
        """Add a cached entry's predicate ranges to the index."""
        started = time.perf_counter()
        self._by_source.setdefault(entry.source, []).append(entry)
        ranges = extract_ranges(entry.predicate)
        if not ranges:
            self._unconstrained.setdefault(entry.source, []).append(entry)
        elif self.use_rtree:
            for field, interval in ranges.items():
                tree = self._trees.setdefault(
                    (entry.source, field), RTree(max_entries=self._max_entries)
                )
                tree.insert(_interval_rect(interval.low, interval.high), entry)
        self.insert_seconds += time.perf_counter() - started

    def unregister(self, entry: CacheEntry) -> None:
        """Remove an evicted entry from the index."""
        if entry in self._by_source.get(entry.source, []):
            self._by_source[entry.source].remove(entry)
        if entry in self._unconstrained.get(entry.source, []):
            self._unconstrained[entry.source].remove(entry)
        if not self.use_rtree:
            return
        for field, interval in extract_ranges(entry.predicate).items():
            tree = self._trees.get((entry.source, field))
            if tree is not None:
                tree.delete(_interval_rect(interval.low, interval.high), entry)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def find_subsuming(
        self,
        source: str,
        predicate: Expression | None,
        fields: list[str],
        exclude_key: str | None = None,
    ) -> list[CacheEntry]:
        """Entries over ``source`` whose predicate subsumes ``predicate`` and
        whose cached data can answer a query over ``fields``.

        ``exclude_key`` drops the entry with that cache-key string (the exact
        match, which the caller probes separately) from the result.
        """
        started = time.perf_counter()
        try:
            if not self.use_rtree:
                return self._linear_lookup(source, predicate, fields, exclude_key)
            candidates = self._rtree_candidates(source, predicate)
            return self._verify(candidates, predicate, fields, exclude_key)
        finally:
            self.lookup_seconds += time.perf_counter() - started

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _rtree_candidates(self, source: str, predicate: Expression | None) -> list[CacheEntry]:
        candidates: list[CacheEntry] = list(self._unconstrained.get(source, []))
        ranges = extract_ranges(predicate)
        if not ranges:
            # A full scan can only be answered by unconstrained caches.
            return candidates
        # For each constrained field of the new predicate, collect entries whose
        # cached interval for that field contains the new interval; an entry
        # constrained on some field must appear in that field's tree, so taking
        # the union of per-field hits plus the unconstrained entries is a safe
        # superset, which _verify then narrows down.
        seen: set[int] = {id(entry) for entry in candidates}
        for field, interval in ranges.items():
            tree = self._trees.get((source, field))
            if tree is None:
                continue
            rect = _interval_rect(interval.low, interval.high)
            for entry in tree.search_containing(rect):
                if id(entry) not in seen:
                    seen.add(id(entry))
                    candidates.append(entry)
        return candidates

    def _linear_lookup(
        self,
        source: str,
        predicate: Expression | None,
        fields: list[str],
        exclude_key: str | None = None,
    ) -> list[CacheEntry]:
        return self._verify(self._by_source.get(source, []), predicate, fields, exclude_key)

    @staticmethod
    def _verify(
        candidates: list[CacheEntry],
        predicate: Expression | None,
        fields: list[str],
        exclude_key: str | None = None,
    ) -> list[CacheEntry]:
        matches = []
        for entry in candidates:
            if exclude_key is not None and entry.key.as_string() == exclude_key:
                continue
            if not predicate_subsumes(entry.predicate, predicate):
                continue
            if not entry.supports_fields(fields):
                continue
            matches.append(entry)
        return matches
