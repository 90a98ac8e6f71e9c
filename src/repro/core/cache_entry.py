"""Cache entries: keys, per-entry statistics and layout observations.

A :class:`CacheEntry` represents one cached operator result — either an
*eager* entry holding a fully materialized :class:`~repro.layouts.base.CacheLayout`,
or a *lazy* entry holding only the ordinals of the satisfying raw records
(Section 5.2's low-overhead caching mode).  The entry carries the timing
statistics the benefit metric needs (t, c, s, l, n, B) and the per-query layout
observations the layout selector consumes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.engine.expressions import Expression
from repro.layouts.base import CacheLayout

_entry_ids = itertools.count(1)


@dataclass(frozen=True)
class CacheKey:
    """Identity of a cached operator: the source it reads and its predicate.

    Two select operators match when they read the same source and evaluate the
    same algebraic expression (Section 3.2); expression identity is structural,
    via :meth:`~repro.engine.expressions.Expression.signature`.
    """

    source: str
    predicate_signature: str
    operation: str = "select"

    @classmethod
    def for_select(cls, source: str, predicate: Expression | None) -> "CacheKey":
        signature = predicate.signature() if predicate is not None else "true"
        return cls(source=source, predicate_signature=signature, operation="select")

    def as_string(self) -> str:
        return f"{self.operation}:{self.source}:{self.predicate_signature}"


@dataclass
class CacheStats:
    """The measurements feeding the benefit metric (Figure 8 of the paper)."""

    #: number of times the cached item has been reused (``n``)
    reuse_count: int = 0
    #: time spent executing the operator over raw data, including parsing (``t``)
    operator_time: float = 0.0
    #: time spent building the cache (``c``)
    caching_time: float = 0.0
    #: most recent time spent scanning the cache on reuse (``s``)
    scan_time: float = 0.0
    #: most recent time spent looking up a matching cache (``l``)
    lookup_time: float = 0.0
    #: logical sequence number of the last access (for recency-based policies)
    last_access: int = 0
    #: logical sequence number at creation
    created_at: int = 0
    #: total number of accesses including the creating query
    access_count: int = 1

    def record_access(self, sequence: int, scan_time: float, lookup_time: float) -> None:
        self.reuse_count += 1
        self.access_count += 1
        self.last_access = sequence
        # Keep running averages so that one noisy measurement does not dominate.
        if self.scan_time == 0.0:
            self.scan_time = scan_time
        else:
            self.scan_time = 0.5 * self.scan_time + 0.5 * scan_time
        if self.lookup_time == 0.0:
            self.lookup_time = lookup_time
        else:
            self.lookup_time = 0.5 * self.lookup_time + 0.5 * lookup_time


@dataclass
class LayoutObservation:
    """One query's measured cost of scanning a cached item (Section 4.2).

    ``data_cost`` is the paper's :math:`D_i` (time loading values from the
    cache), ``compute_cost`` its :math:`C_i` (branching / level interpretation
    / predicate evaluation), ``rows_accessed`` :math:`r_i` and
    ``columns_accessed`` :math:`c_i`.
    """

    query_index: int
    layout_name: str
    data_cost: float
    compute_cost: float
    rows_accessed: int
    columns_accessed: int
    accessed_nested: bool = False


class CacheEntry:
    """One cached operator result plus all of its bookkeeping."""

    def __init__(
        self,
        key: CacheKey,
        source: str,
        source_format: str,
        predicate: Expression | None,
        fields: list[str],
        mode: str = "eager",
        layout: CacheLayout | None = None,
        lazy_offsets: list[int] | None = None,
    ) -> None:
        if mode not in ("eager", "lazy"):
            raise ValueError(f"mode must be 'eager' or 'lazy', got {mode!r}")
        if mode == "eager" and layout is None:
            raise ValueError("eager entries require a layout")
        if mode == "lazy" and lazy_offsets is None:
            raise ValueError("lazy entries require record offsets")
        self.entry_id = next(_entry_ids)
        self.key = key
        self.source = source
        self.source_format = source_format
        self.predicate = predicate
        self.fields = list(fields)
        self.mode = mode
        self.layout = layout
        self.lazy_offsets = list(lazy_offsets) if lazy_offsets is not None else None
        self.stats = CacheStats()
        #: layout observations since the last layout switch (the selector's window)
        self.observations: list[LayoutObservation] = []
        #: the first parquet-layout observation of each ``(rows, columns)``
        #: footprint, used by ``ComputeCost(rows, cols)`` when estimating a
        #: switch back to Parquet (which keeps the earliest of equally close
        #: observations, so later ones of a footprint never count)
        self.parquet_history: dict[tuple[int, int], LayoutObservation] = {}
        #: Greedy-Dual bookkeeping: the L value at the last access
        self.gd_baseline: float = 0.0
        #: cached H value computed during the previous eviction pass (used when
        #: benefit recomputation is disabled — the ablation of Section 5.1)
        self.frozen_benefit: float | None = None
        self.layout_switches: int = 0
        #: set when an eager upgrade was rejected because the materialized
        #: layout cannot fit the byte budget — stops every later reuse from
        #: re-parsing and rebuilding a layout that will be rejected again
        self.upgrade_blocked: bool = False

    # ------------------------------------------------------------------
    # Size and layout helpers
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Size of the cached data (``B`` in the benefit metric)."""
        if self.mode == "lazy":
            return 8 * len(self.lazy_offsets or [])
        assert self.layout is not None
        return self.layout.nbytes

    @property
    def layout_name(self) -> str:
        if self.mode == "lazy":
            return "lazy"
        assert self.layout is not None
        return self.layout.layout_name

    @property
    def is_lazy(self) -> bool:
        return self.mode == "lazy"

    def supports_fields(self, fields: list[str]) -> bool:
        """True when the cached data can answer a query over ``fields``."""
        if self.mode == "lazy":
            # Lazy caches go back to the raw file, so any field is available.
            return True
        assert self.layout is not None
        return self.layout.supports_fields(fields)

    # ------------------------------------------------------------------
    # Statistics updates
    # ------------------------------------------------------------------
    def record_creation(self, sequence: int, operator_time: float, caching_time: float) -> None:
        self.stats.created_at = sequence
        self.stats.last_access = sequence
        self.stats.operator_time = operator_time
        self.stats.caching_time = caching_time

    def record_reuse(self, sequence: int, scan_time: float, lookup_time: float) -> None:
        self.stats.record_access(sequence, scan_time, lookup_time)

    def add_observation(self, observation: LayoutObservation) -> None:
        self.observations.append(observation)
        if observation.layout_name == "parquet":
            footprint = (observation.rows_accessed, observation.columns_accessed)
            self.parquet_history.setdefault(footprint, observation)

    def reset_observation_window(self) -> None:
        """Move the layout-selection window forward after a switch (Section 4.2)."""
        self.observations = []

    def replace_layout(self, layout: CacheLayout) -> None:
        """Install a converted layout (after a layout switch or lazy upgrade)."""
        self.layout = layout
        self.mode = "eager"
        self.lazy_offsets = None
        self.layout_switches += 1

    def upgrade_to_eager(self, layout: CacheLayout, caching_time: float) -> None:
        """Replace a lazy entry's offsets with a fully materialized layout."""
        self.layout = layout
        self.mode = "eager"
        self.lazy_offsets = None
        self.stats.caching_time += caching_time

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"CacheEntry(id={self.entry_id}, key={self.key.as_string()!r}, "
            f"mode={self.mode}, layout={self.layout_name}, bytes={self.nbytes})"
        )
