"""The ReCache cache manager: the coordination point of all reactive decisions.

The query engine interacts with this class at four points of a query's life:

1. :meth:`ReCache.lookup` — before executing a select operator, ask whether an
   exactly matching or subsuming cache exists (measuring lookup time ``l``).
2. :meth:`ReCache.admit_eager` / :meth:`ReCache.admit_lazy` — after a cache
   miss, admit the materialized result (or just the satisfying offsets) under
   the admission controller's decision, evicting older items if capacity is
   exceeded.
3. :meth:`ReCache.record_reuse` — after reusing a cache, update its statistics
   and layout observations, and let the layout selector switch its layout if
   the observed workload warrants it.
4. :meth:`ReCache.upgrade_lazy` — replace a lazy entry with an eager one the
   first time it is reused.

Concurrency model: every public method takes the instance's one re-entrant
lock, so one ``ReCache`` may be shared by many threads.  The metadata
operations (lookup, admission bookkeeping, eviction, statistics) serialize on
it while the expensive work (raw scans, cache scans, layout construction
*and* layout conversion) happens outside it.  All entries live in one pool
ranked by one eviction policy — the paper's single-pool Greedy-Dual eviction
(Section 5.1, Algorithm 1).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.core.admission import AdmissionController
from repro.core.cache_entry import CacheEntry, CacheKey, LayoutObservation
from repro.core.config import ReCacheConfig
from repro.core.eviction import EvictionPolicy
from repro.core.layout_selector import LayoutSelector
from repro.core.policies import OfflinePolicy, make_policy
from repro.core.subsumption import SubsumptionIndex
from repro.engine.expressions import Expression
from repro.layouts import convert_layout
from repro.layouts.base import CacheLayout


@dataclass
class CacheMatch:
    """The result of a successful cache lookup."""

    entry: CacheEntry
    exact: bool
    lookup_time: float


@dataclass
class CacheManagerStats:
    """Aggregate counters exposed for reporting and tests."""

    lookups: int = 0
    exact_hits: int = 0
    subsumption_hits: int = 0
    misses: int = 0
    admissions_eager: int = 0
    admissions_lazy: int = 0
    admissions_skipped: int = 0
    evictions: int = 0
    evicted_bytes: int = 0
    layout_switches: int = 0
    lazy_upgrades: int = 0
    #: poisoned entries invalidated by :meth:`ReCache.quarantine`
    quarantined: int = 0

    @property
    def hits(self) -> int:
        return self.exact_hits + self.subsumption_hits

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ReCache:
    """Reactive cache of intermediate operator results over raw data."""

    #: Lock discipline, machine-checked by ``python -m tools.recheck_lint.lint src``:
    #: every load/store of these fields must hold the declared lock (methods
    #: below the "Internals" banner document ``# caller-holds: self._lock``).
    GUARDED_BY = {
        "_entries": "_lock",
        "_sequence": "_lock",
        "_switches_in_progress": "_lock",
        "_occupancy": "_lock",
        "stats": "_lock",
    }

    def __init__(self, config: ReCacheConfig | None = None) -> None:
        self.config = config or ReCacheConfig()
        self.policy: EvictionPolicy = make_policy(
            self.config.eviction_policy, recompute_benefit=self.config.recompute_benefit
        )
        #: the only reader of the admission settings (policy, threshold, sample)
        self.admission = AdmissionController(
            policy=self.config.admission,
            overhead_threshold=self.config.admission_threshold,
            sample_records=self.config.admission_sample_records,
        )
        self.layout_selector = LayoutSelector()
        self.subsumption = SubsumptionIndex()
        self.stats = CacheManagerStats()
        self._entries: dict[str, CacheEntry] = {}
        self._sequence = 0
        self._lock = threading.RLock()
        #: keys whose layout conversion is currently running outside the lock;
        #: concurrent reuses of the same entry skip the (expensive) conversion
        #: instead of racing N rebuilds of which all but one would be dropped.
        self._switches_in_progress: set[str] = set()
        #: incrementally maintained byte occupancy (sum of entry.nbytes)
        self._occupancy = 0
        #: shared-memory export registry (process-pool execution); attached
        #: post-construction so eviction retires published segments in the
        #: same critical section that drops the entry
        self._shm_registry = None

    # ------------------------------------------------------------------
    # Query lifecycle
    # ------------------------------------------------------------------
    def begin_query(self) -> int:
        """Advance the logical clock; returns the new query sequence number."""
        with self._lock:
            self._sequence += 1
            if isinstance(self.policy, OfflinePolicy):
                self.policy.advance_to(self._sequence)
            return self._sequence

    @property
    def sequence(self) -> int:
        return self._sequence  # unguarded-read: GIL-atomic int; monitoring path

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def entries(self) -> list[CacheEntry]:
        with self._lock:
            return list(self._entries.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def total_bytes(self) -> int:
        return self._occupancy  # unguarded-read: GIL-atomic int; monitoring path

    def has_hot_entries(self, source: str) -> bool:
        """True when a cached item from ``source`` has already been reused.

        This drives the admission controller's working-set shortcut
        (Section 5.2): once caching a file has demonstrably paid off, further
        accesses to the same file are cached eagerly without re-sampling.
        """
        with self._lock:
            return any(
                entry.source == source and entry.stats.reuse_count > 0
                for entry in self._entries.values()
            )

    def get_exact(self, source: str, predicate: Expression | None) -> CacheEntry | None:
        key = CacheKey.for_select(source, predicate)
        with self._lock:
            return self._entries.get(key.as_string())

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(
        self, source: str, predicate: Expression | None, fields: list[str]
    ) -> CacheMatch | None:
        """Find an exactly matching or subsuming cache for a select operator."""
        if not self.config.caching_enabled:
            return None
        started = time.perf_counter()
        key = CacheKey.for_select(source, predicate)
        with self._lock:
            self.stats.lookups += 1

            entry = self._entries.get(key.as_string())
            if entry is not None and entry.supports_fields(fields):
                lookup_time = time.perf_counter() - started
                self.stats.exact_hits += 1
                return CacheMatch(entry=entry, exact=True, lookup_time=lookup_time)

            matches = self.subsumption.find_subsuming(
                source, predicate, fields, exclude_key=key.as_string()
            )
            if matches:
                # Prefer the smallest subsuming cache: cheapest to scan.
                best = min(matches, key=lambda e: e.nbytes)
                lookup_time = time.perf_counter() - started
                self.stats.subsumption_hits += 1
                return CacheMatch(entry=best, exact=False, lookup_time=lookup_time)

            self.stats.misses += 1
            return None

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit_eager(
        self,
        source: str,
        source_format: str,
        predicate: Expression | None,
        fields: list[str],
        layout: CacheLayout,
        operator_time: float,
        caching_time: float,
    ) -> CacheEntry | None:
        """Admit a fully materialized cache entry."""
        if not self.config.caching_enabled:
            return None
        entry = CacheEntry(
            key=CacheKey.for_select(source, predicate),
            source=source,
            source_format=source_format,
            predicate=predicate,
            fields=fields,
            mode="eager",
            layout=layout,
        )
        return self._admit(entry, operator_time, caching_time)

    def admit_lazy(
        self,
        source: str,
        source_format: str,
        predicate: Expression | None,
        fields: list[str],
        offsets: list[int],
        operator_time: float,
        caching_time: float,
    ) -> CacheEntry | None:
        """Admit a lazy (offsets-only) cache entry."""
        if not self.config.caching_enabled:
            return None
        entry = CacheEntry(
            key=CacheKey.for_select(source, predicate),
            source=source,
            source_format=source_format,
            predicate=predicate,
            fields=fields,
            mode="lazy",
            lazy_offsets=offsets,
        )
        return self._admit(entry, operator_time, caching_time)

    def _admit(
        self, entry: CacheEntry, operator_time: float, caching_time: float
    ) -> CacheEntry | None:
        with self._lock:
            entry.record_creation(self._sequence, operator_time, caching_time)
            if not self._make_room(entry.nbytes, entry.nbytes, exclude=entry):
                self.stats.admissions_skipped += 1
                return None
            self._install(entry)
            if entry.is_lazy:
                self.stats.admissions_lazy += 1
            else:
                self.stats.admissions_eager += 1
            return entry

    def note_skipped_admission(self) -> None:
        """Count an admission the executor abandoned before reaching the cache
        (e.g. a layout build that failed on a degenerate result)."""
        with self._lock:
            self.stats.admissions_skipped += 1

    # ------------------------------------------------------------------
    # Reuse
    # ------------------------------------------------------------------
    def record_reuse(
        self,
        entry: CacheEntry,
        scan_time: float,
        lookup_time: float,
        observation: LayoutObservation | None = None,
    ) -> str | None:
        """Update statistics after reusing ``entry``; maybe switch its layout.

        Returns the name of the new layout if a switch was performed.

        The switch *decision* happens under the lock, but the conversion — the
        expensive part, a full rebuild of the cached data in the target layout
        — runs outside it, so concurrent queries on this cache are not
        serialized behind a layout rebuild.  The install step re-acquires the
        lock and re-validates entry liveness and the byte budget before
        publishing the converted layout.
        """
        with self._lock:
            entry.record_reuse(self._sequence, scan_time, lookup_time)
            self.policy.on_access(entry, self._sequence)
            if observation is not None:
                self.layout_selector.observe(entry, observation)
            if not self.config.layout_selection or entry.is_lazy:
                return None
            if not self._is_resident(entry):
                # The entry was evicted while this query was scanning it (the
                # scan itself stays valid — it holds the layout reference).
                # Switching a ghost's layout would corrupt the byte accounting.
                return None
            decision = self.layout_selector.decide(entry)
            if not decision.should_switch:
                return None
            target = decision.target_layout
            old_layout = entry.layout
            if target is None or old_layout is None:
                return None
            key = entry.key.as_string()
            if key in self._switches_in_progress:
                # Another thread is already converting this entry; its install
                # will publish the result — a second rebuild would be wasted.
                return None
            self._switches_in_progress.add(key)
        try:
            try:
                converted, conversion_time = convert_layout(
                    old_layout, target, old_layout.schema
                )
            except Exception:
                # The rebuild re-reads the cached bytes, so a conversion
                # failure means the entry itself is suspect: quarantine it
                # instead of leaking a raw scan/corruption error past the
                # reuse path (record_reuse's contract is "raises nothing").
                self.quarantine(entry)
                return None
            with self._lock:
                return self._install_switched_layout(
                    entry, old_layout, converted, conversion_time, target
                )
        finally:
            with self._lock:
                self._switches_in_progress.discard(key)

    def upgrade_lazy(self, entry: CacheEntry, layout: CacheLayout, caching_time: float) -> bool:
        """Replace a lazy entry's offsets with a materialized layout.

        Returns False when the upgrade was skipped: another thread already
        upgraded the entry, the entry was evicted mid-scan, or the eager
        layout cannot fit in the byte budget even after eviction (the entry
        then stays lazy).
        """
        with self._lock:
            if not entry.is_lazy or not self._is_resident(entry):
                return False
            limit = self.config.cache_size_limit
            if limit is not None and layout.nbytes > limit:
                # The eager form can never fit: remember that, so reuses stop
                # rebuilding a layout that will be rejected.
                entry.upgrade_blocked = True
                return False
            size_delta = layout.nbytes - entry.nbytes
            if not self._make_room(layout.nbytes, size_delta, exclude=entry):
                return False
            entry.upgrade_to_eager(layout, caching_time)
            self._occupancy += size_delta
            self.stats.lazy_upgrades += 1
            return True

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def evict_entry(self, entry: CacheEntry) -> None:
        with self._lock:
            key = entry.key.as_string()
            if key in self._entries and self._entries[key] is entry:
                del self._entries[key]
                self._occupancy -= entry.nbytes
            self.subsumption.unregister(entry)
            self.policy.on_evict(entry)
            self.stats.evictions += 1
            self.stats.evicted_bytes += entry.nbytes
            if self._shm_registry is not None:
                # Retire inside the same critical section that drops the
                # entry: a process worker can then never attach a live
                # segment name whose entry is already gone (generation
                # stamping makes the stale name a typed attach failure).
                self._shm_registry.retire(entry)

    def quarantine(self, entry: CacheEntry) -> bool:
        """Invalidate a poisoned entry whose layout scan raised mid-query.

        The entry is removed under the lock with its occupancy released
        through the normal eviction path, so a corrupted cache can never be
        served again and never strands bytes.  Returns False for ghosts
        (already evicted/replaced) so concurrent quarantines of the same
        entry count it once.
        """
        with self._lock:
            if not self._is_resident(entry):
                return False
            self.evict_entry(entry)
            self.stats.quarantined += 1
            return True

    def attach_shm_registry(self, registry) -> None:
        """Wire the shared-memory export registry into eviction."""
        self._shm_registry = registry

    def is_resident(self, entry: CacheEntry) -> bool:
        """Whether this exact entry object is still cached (public probe).

        The process-pool offload path re-checks residency *after* exporting
        an entry to shared memory: an eviction racing the export has already
        retired the segment, so serving from it would be a stale read.
        """
        with self._lock:
            return self._is_resident(entry)

    # ------------------------------------------------------------------
    # Internals (all called with the lock held)
    # ------------------------------------------------------------------
    def _is_resident(self, entry: CacheEntry) -> bool:  # caller-holds: self._lock
        return self._entries.get(entry.key.as_string()) is entry

    def _install(self, entry: CacheEntry) -> None:  # caller-holds: self._lock
        key = entry.key.as_string()
        existing = self._entries.get(key)
        if existing is not None:
            # A re-admission with (for example) a wider field set replaces the
            # previous entry for the same operator.
            self.evict_entry(existing)
            self.stats.evictions -= 1  # replacement, not a capacity eviction
            self.stats.evicted_bytes -= existing.nbytes
        self._entries[key] = entry
        self._occupancy += entry.nbytes
        self.policy.on_admit(entry, self._sequence)
        self.subsumption.register(entry)

    def _make_room(self, nbytes: int, growth: int, exclude: CacheEntry) -> bool:  # caller-holds: self._lock
        """Evict until ``growth`` more bytes fit the budget; False if they cannot.

        ``nbytes`` is the full size of the item being placed: one larger than
        the entire cache is never admitted.  ``exclude`` (the item itself) is
        never chosen as a victim.
        """
        limit = self.config.cache_size_limit
        if limit is None:
            return True
        if nbytes > limit:
            return False
        needed = self._occupancy + growth - limit
        if needed > 0:
            candidates = [e for e in self._entries.values() if e is not exclude]
            for victim in self.policy.choose_victims(candidates, needed):
                self.evict_entry(victim)
        # The policy may free fewer bytes than requested (e.g. return too few
        # victims); placing the item then would blow the byte budget.
        return self._occupancy + growth <= limit

    def _install_switched_layout(  # caller-holds: self._lock
        self,
        entry: CacheEntry,
        old_layout: CacheLayout,
        converted: CacheLayout,
        conversion_time: float,
        target: str,
    ) -> str | None:
        """Publish a layout converted outside the lock (lock held by caller).

        The world may have moved while the conversion ran, so everything is
        re-validated: the entry must still be resident and still hold the
        layout the conversion started from (a concurrent switch, upgrade or
        re-admission loses the race and the converted layout is dropped), and
        the converted size must still fit the byte budget after eviction
        (otherwise the old layout is kept).
        """
        if not self._is_resident(entry) or entry.layout is not old_layout:
            return None
        size_delta = converted.nbytes - entry.nbytes
        if not self._make_room(converted.nbytes, size_delta, exclude=entry):
            return None
        entry.replace_layout(converted)
        self._occupancy += size_delta
        # Converting the cache is additional caching work: fold it into ``c`` so
        # the benefit metric keeps reflecting the true reconstruction cost.
        entry.stats.caching_time += conversion_time
        self.layout_selector.after_switch(entry)
        self.stats.layout_switches += 1
        return target
