"""Query subsumption support for range predicates (Section 3.3).

ReCache reuses a cached selection result for a *different* query when the
cached predicate's range fully covers the new predicate's range.  The index
keeps, per source, each cached entry with its per-field intervals, computed
once when the entry is admitted; an entry with a conjunct no interval describes
can subsume nothing and is never listed.  A lookup extracts the new
predicate's intervals once and checks each listed entry's intervals against
them (:func:`~repro.engine.expressions.intervals_cover`), so the rule itself
lives only in :func:`~repro.engine.expressions.predicate_subsumes`' two halves.

The index itself is not synchronized: every call happens under the owning
:class:`~repro.core.cache_manager.ReCache` instance's lock.
"""

from __future__ import annotations

from repro.core.cache_entry import CacheEntry
from repro.engine.expressions import (
    Expression,
    Interval,
    cached_intervals,
    extract_ranges,
    intervals_cover,
)


class SubsumptionIndex:
    """Finds cached entries whose predicate subsumes a new predicate."""

    def __init__(self) -> None:
        #: per source, (entry, its predicate's intervals) in admission order
        self._by_source: dict[str, list[tuple[CacheEntry, dict[str, Interval]]]] = {}

    def register(self, entry: CacheEntry) -> None:
        """List a cached entry with its predicate's intervals."""
        intervals = cached_intervals(entry.predicate)
        if intervals is not None:
            self._by_source.setdefault(entry.source, []).append((entry, intervals))

    def unregister(self, entry: CacheEntry) -> None:
        """Remove an evicted entry from the index."""
        listed = self._by_source.get(entry.source)
        if listed:
            listed[:] = [pair for pair in listed if pair[0] is not entry]

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
        new = extract_ranges(predicate)
        return [
            entry
            for entry, intervals in self._by_source.get(source, ())
            if intervals_cover(intervals, new)
            and entry.supports_fields(fields)
            and (exclude_key is None or entry.key.as_string() != exclude_key)
        ]
