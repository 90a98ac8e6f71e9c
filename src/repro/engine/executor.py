"""Physical execution of cache-aware logical plans.

Plans execute over :class:`~repro.engine.batch.RecordBatch` chunks: batches
flow from the scans up through select/project/join, predicates evaluate as
NumPy masks, and record granularity is touched only where ReCache's semantics
demand it (admission sampling, record-level dedup).  No row dictionary is
built here: the plan's output leaves as batches (``QueryEngine`` turns them
into rows for a query that asks for rows), raw lines become columns, and
columns become cache layouts.

The most involved piece is the materializer, which reproduces ReCache's
reactive admission behaviour (Section 5.2): it caches the first records of a
scan both eagerly and lazily while measuring the time spent on caching work
(sampled per batch), extrapolates the caching overhead to the end of the
file, and downgrades to lazy (offsets-only) caching when the projected
overhead exceeds the configured threshold.  Cache scans measure the
data/compute costs that feed the layout selector, and lazy caches are upgraded
to eager ones on their first reuse.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# recheck-lint: check-no-swallow — except blocks in this module must re-raise,
# wrap in a typed error, or route through an audited containment sink.
from repro.core.admission import AdmissionDecision, AdmissionSample
from repro.core.cache_entry import LayoutObservation
from repro.core.cache_manager import ReCache
from repro.core.config import ReCacheConfig
from repro.core.errors import CorruptedCacheError, DeadlineExceeded, WorkerCrashed
from repro.core.sharded_cache import ShardedReCache
from repro.engine.algebra import (
    AggregateNode,
    CacheScanNode,
    JoinNode,
    MaterializeNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SelectNode,
)
from repro.engine.batch import RecordBatch
from repro.engine.calibration import split_scan_cost
from repro.engine.compiler import compile_aggregates, compile_batch_predicate
from repro.engine.operators import (
    aggregate_batches,
    filter_batches,
    hash_join_batches,
    project_batches,
)
from repro.engine.procpool import ScanTask
from repro.engine.types import ColumnarResult
from repro.faults import runtime as faults
from repro.formats.datafile import DataSource, DataSourceCatalog
from repro.layouts import build_layout
from repro.utils.timing import SampledTimer


@dataclass
class QueryReport:
    """Per-query execution report returned by the engine."""

    #: the query output: a list of row dictionaries, or the
    #: :class:`~repro.engine.types.ColumnarResult` they are built from when
    #: the query asks for columnar output
    results: "list[dict] | ColumnarResult" = field(default_factory=list)
    rows_returned: int = 0
    total_time: float = 0.0
    operator_time: float = 0.0
    caching_time: float = 0.0
    cache_scan_time: float = 0.0
    lookup_time: float = 0.0
    exact_hits: int = 0
    subsumption_hits: int = 0
    misses: int = 0
    layout_switches: int = 0
    lazy_upgrades: int = 0
    admissions: dict = field(default_factory=lambda: {"eager": 0, "lazy": 0})
    #: time spent between submission to the serving tier and execution start
    #: (backpressure blocking plus queue residency); 0 outside a server.
    #: Always computed from coordinator-side clocks — worker processes
    #: report durations only, never timestamps.
    queue_wait_time: float = 0.0
    #: the server's pending-query depth observed when this query was enqueued
    queue_depth: int = 0
    #: 1 when this request was served from another identical request's
    #: execution in the same submission batch (no engine work of its own)
    coalesced: int = 0
    #: wait accumulated by coalesced duplicates between their own enqueue and
    #: the primary's resolution.  Kept out of ``queue_wait_time`` so N
    #: duplicates of one execution cannot report N full queue waits (the
    #: accounting bug that made batched-bench wait dwarf wall time).
    coalesced_wait_time: float = 0.0
    #: 1 when the cache-hit scan ran on the worker-process pool
    #: (``execution_mode="processes"``) instead of in-process
    offloaded: int = 0
    #: transparent re-executions after a transient scan fault (the report of
    #: the attempt that finally succeeded carries the count)
    retries: int = 0
    #: cache scans that fell back to a raw-source scan after their cached
    #: layout raised mid-scan (the result stays correct, just slower)
    degraded_scans: int = 0
    #: poisoned cache entries this query invalidated (evicted under the
    #: shard lock with their budget share released)
    quarantined_entries: int = 0
    #: 1 when the serving tier rejected this query under eviction pressure
    #: (set by whoever converts the typed QueryRejected into a report)
    shed: int = 0
    #: 1 when the query's deadline elapsed before a result was produced
    deadline_exceeded: int = 0
    label: str = ""

    @property
    def cache_hits(self) -> int:
        return self.exact_hits + self.subsumption_hits

    @property
    def caching_overhead(self) -> float:
        """Fraction of the query's time spent on caching work (Figure 12)."""
        if self.total_time <= 0.0:
            return 0.0
        return self.caching_time / self.total_time

    def as_dict(self) -> dict:
        return {
            "rows_returned": self.rows_returned,
            "total_time": self.total_time,
            "operator_time": self.operator_time,
            "caching_time": self.caching_time,
            "cache_scan_time": self.cache_scan_time,
            "lookup_time": self.lookup_time,
            "exact_hits": self.exact_hits,
            "subsumption_hits": self.subsumption_hits,
            "misses": self.misses,
            "caching_overhead": self.caching_overhead,
            "layout_switches": self.layout_switches,
            "queue_wait_time": self.queue_wait_time,
            "queue_depth": self.queue_depth,
            "coalesced": self.coalesced,
            "coalesced_wait_time": self.coalesced_wait_time,
            "offloaded": self.offloaded,
            "retries": self.retries,
            "degraded_scans": self.degraded_scans,
            "quarantined_entries": self.quarantined_entries,
            "shed": self.shed,
            "deadline_exceeded": self.deadline_exceeded,
        }


@dataclass
class ExecutionContext:
    """Everything the executor needs while executing one plan.

    One context is created per query execution (the engine never shares a
    context between threads), so the report and timing fields need no locking;
    only the cache manager behind ``recache`` is shared.
    """

    catalog: DataSourceCatalog
    recache: ReCache | ShardedReCache | None
    config: ReCacheConfig
    report: QueryReport
    sequence: int
    query_started: float
    #: absolute ``time.perf_counter()`` instant after which execution must
    #: abort with :class:`DeadlineExceeded`; ``None`` disables the checks
    deadline_at: float | None = None


def _check_deadline(ctx: ExecutionContext) -> None:
    """Raise :class:`DeadlineExceeded` once the context's deadline passes.

    Called at operator boundaries and periodically inside scan loops; cost
    is one comparison when no deadline is set.
    """
    deadline_at = ctx.deadline_at
    if deadline_at is not None and time.perf_counter() > deadline_at:
        ctx.report.deadline_exceeded = 1
        raise DeadlineExceeded(
            f"query exceeded its deadline mid-execution (label={ctx.report.label!r})"
        )


def execute_plan(plan: PlanNode, ctx: ExecutionContext) -> ColumnarResult:
    """Execute a logical plan; its output stays in record batches.

    The caller's representation is chosen once, by ``QueryEngine``, after
    this returns: no row dictionary is assembled here.
    """
    return ColumnarResult(_execute_batches(plan, ctx))


def _record_level_semantics(source: DataSource, fields: list[str]) -> bool:
    """True when a query over ``fields`` aggregates once per record.

    Queries that reference no nested attribute follow the nested algebra's
    record-level semantics; flattening duplicates must not be double counted
    for them, regardless of which layout serves the data.
    """
    if not source.is_nested():
        return False
    schema = source.schema
    known = set(schema.leaf_paths())
    return not any(schema.is_nested_path(path) for path in fields if path in known)


def _record_cache_scan_reuse(
    node: CacheScanNode,
    ctx: ExecutionContext,
    layout_name: str,
    scan_time: float,
    scanned_rows: int,
    wanted: list[str],
    accessed_nested: bool,
) -> None:
    """Feed one cache-scan measurement to the layout selector and policies."""
    recache = ctx.recache
    assert recache is not None
    data_cost, compute_cost = split_scan_cost(scan_time, scanned_rows * max(1, len(wanted)))
    observation = LayoutObservation(
        query_index=ctx.sequence,
        layout_name=layout_name,
        data_cost=data_cost,
        compute_cost=compute_cost,
        rows_accessed=scanned_rows,
        columns_accessed=max(1, len(wanted)),
        accessed_nested=accessed_nested,
    )
    switched = recache.record_reuse(
        node.entry, scan_time=scan_time, lookup_time=node.lookup_time, observation=observation
    )
    if switched:
        ctx.report.layout_switches += 1


# ---------------------------------------------------------------------------
# Poisoned-entry containment
# ---------------------------------------------------------------------------
def _quarantine_entry(node: CacheScanNode, ctx: ExecutionContext) -> None:
    """Invalidate a cache entry whose scan raised (audited no-swallow sink).

    The entry is evicted under its shard lock with its budget reservation and
    occupancy released; the query then degrades to a raw-source scan instead
    of failing.  Racing queries that already hold the entry either finish
    their own scan or hit the same fault and find the entry already gone.
    """
    recache = ctx.recache
    if recache is not None and recache.quarantine(node.entry):
        ctx.report.quarantined_entries += 1


def _degraded_raw_batches(node: CacheScanNode, ctx: ExecutionContext) -> list[RecordBatch]:  # rowwise-fallback: degraded re-scan after quarantine trades throughput for containment
    """Serve a cache-scan node from the raw source after quarantining its entry.

    ``residual_predicate`` always carries the full table predicate (even on
    exact hits), so re-applying it over a fresh raw scan reproduces the cache
    scan's output bit for bit.
    """
    ctx.report.degraded_scans += 1
    source = ctx.catalog.get(node.entry.source)
    batch_predicate = compile_batch_predicate(node.residual_predicate)
    dedupe = _record_level_semantics(source, node.fields)
    started = time.perf_counter()
    output = filter_batches(
        source.scan_batches(node.fields, batch_size=ctx.config.batch_size),
        batch_predicate,
        dedupe_records=dedupe,
    )
    ctx.report.operator_time += time.perf_counter() - started
    return output


def _vectorizable_ranges(predicate, layout, wanted_fields) -> dict[str, tuple[float, float]] | None:
    """Closed ranges usable by the layouts' vectorized filter, or ``None``.

    The fast path applies when the residual predicate is a pure conjunction of
    numeric range constraints and the layout can filter/project all involved
    fields vectorized (for Parquet, nested numeric leaves qualify too as long
    as they form a single aligned repetition group — the mask then evaluates
    at entry granularity over the raw striped arrays).  Open/half-open bounds
    are widened to +/-inf, which is safe for closed-interval evaluation
    because the underlying predicates produced by the workload generators are
    inclusive.
    """
    from repro.engine.expressions import Comparison, RangePredicate, conjuncts, extract_ranges

    if not hasattr(layout, "range_filtered_batch"):
        return None
    parts = conjuncts(predicate)
    for part in parts:
        if not isinstance(part, (Comparison, RangePredicate)):
            return None
        # Every conjunct must convert into a closed interval on its own,
        # otherwise the vectorized filter would silently drop a constraint.
        part_ranges = extract_ranges(part)
        if len(part_ranges) != 1:
            return None
        interval = next(iter(part_ranges.values()))
        if not (interval.low_inclusive and interval.high_inclusive):
            return None
    intervals = extract_ranges(predicate)
    involved = set(wanted_fields) | set(intervals)
    if not layout.supports_range_filter(sorted(involved)):
        return None
    return {field: (interval.low, interval.high) for field, interval in intervals.items()}


# ---------------------------------------------------------------------------
# Process-pool offload (execution_mode="processes")
# ---------------------------------------------------------------------------
def try_offload_cache_scan(plan: PlanNode, ctx: ExecutionContext, pool, registry):
    """Serve an eligible cache-hit plan on the worker-process pool.

    Returns the result rows, or ``None`` when the plan is not offloadable —
    the caller then falls through to the ordinary in-process path, so the
    process pool is a pure fast path, never a correctness dependency.
    Eligible shapes are exactly ``CacheScanNode`` and
    ``AggregateNode(CacheScanNode)`` over an eager flat columnar entry whose
    residual predicate vectorizes to closed ranges: the worker then runs the
    same ``range_filtered_batch`` → ``aggregate_batches``/
    ``rows_from_batches`` pipeline the thread path runs, against columns
    mapped from shared memory.

    A :class:`WorkerCrashed` propagates (typed containment, same contract as
    the thread path's injected crashes); a corruption raised inside the
    worker quarantines the entry here — in the coordinator, where the cache
    locks live — and degrades to the in-process fallback.
    """
    recache = ctx.recache
    if recache is None:
        return None
    if ctx.deadline_at is not None:
        # Deadline checks fire inside scan loops; a shipped task cannot be
        # interrupted mid-flight, so deadline queries stay in-process.
        return None
    if isinstance(plan, AggregateNode) and isinstance(plan.child, CacheScanNode):
        node = plan.child
        aggregates = tuple(plan.aggregates)
        group_by = tuple(plan.group_by)
    elif isinstance(plan, CacheScanNode):
        node = plan
        aggregates = ()
        group_by = ()
    else:
        return None
    entry = node.entry
    layout = entry.layout
    if entry.lazy_offsets is not None or layout is None:
        return None
    if layout.schema is not None and layout.schema.nested_paths():
        # Nested sources need record-level dedupe semantics the worker does
        # not implement (exports are flat-only anyway; this gate is cheaper
        # than attempting one).
        return None
    ranges = _vectorizable_ranges(node.residual_predicate, layout, node.fields)
    if ranges is None:
        return None
    try:
        export = registry.export_for(entry)
    except OSError:  # recheck-lint: allow(no-swallow) — export is opportunistic
        # /dev/shm exhaustion (or any segment-creation failure) must degrade
        # to the in-process path, not fail the query.
        return None
    if export is None or not set(node.fields) <= set(export.fields):
        return None
    if not recache.is_resident(entry):
        # Eviction raced the export: its segment is already retired, and
        # serving from it would read a dead generation.  Fall back.
        registry.retire(entry)
        return None
    plan_specs: tuple[str, ...] = ()
    fault_seed = 0
    active = faults.active_plan()
    if active is not None:
        plan_specs = tuple(spec.as_string() for spec in active.specs)
        fault_seed = active.seed
    task = ScanTask(
        export=export,
        ranges=tuple((name, low, high) for name, (low, high) in sorted(ranges.items())),
        fields=tuple(node.fields),
        aggregates=aggregates,
        group_by=group_by,
        fault_specs=plan_specs,
        fault_seed=fault_seed,
    )
    try:
        result = pool.execute(task)
    except WorkerCrashed:
        raise
    except CorruptedCacheError:
        _quarantine_entry(node, ctx)
        return None
    except Exception:  # recheck-lint: allow(no-swallow) — offload is opportunistic: any non-typed failure (stale segment name, pipe hiccup) falls back to the audited in-process path, which re-raises real faults itself
        return None
    report = ctx.report
    report.lookup_time += node.lookup_time
    if node.exact:
        report.exact_hits += 1
    else:
        report.subsumption_hits += 1
    report.cache_scan_time += result.scan_seconds
    report.operator_time += result.operator_seconds
    report.offloaded = 1
    _record_cache_scan_reuse(
        node,
        ctx,
        layout.layout_name,
        result.scan_seconds,
        result.scanned_rows,
        node.fields,
        accessed_nested=False,
    )
    return result.rows


def _execute_lazy_cache_scan(
    node: CacheScanNode, ctx: ExecutionContext, offsets: list[int]
) -> list[RecordBatch]:
    """Reuse a lazy cache: re-read the satisfying records via the positional map.

    ``offsets`` is the caller's snapshot of the entry's lazy offsets; the entry
    itself may be upgraded concurrently by another query, in which case
    :meth:`~repro.core.cache_manager.ReCache.upgrade_lazy` below declines the
    duplicate upgrade.
    """
    entry = node.entry
    recache = ctx.recache
    assert recache is not None
    source = ctx.catalog.get(entry.source)
    batch_predicate = compile_batch_predicate(node.residual_predicate)
    upgrade = (
        ctx.config.upgrade_lazy_on_reuse
        and not ctx.config.always_lazy
        and not entry.upgrade_blocked
    )
    # When the lazy entry is about to be upgraded, parse complete tuples so the
    # resulting eager cache can serve any later query over this source.
    all_fields = source.flattened_schema.field_names()
    nested = source.is_nested()
    dedupe = _record_level_semantics(source, node.fields)

    started = time.perf_counter()
    output: list[RecordBatch] = []
    cached_columns: dict[str, list] = {name: [] for name in all_fields}
    cached_counts: list[int] = []
    for batch in source.read_record_batches(
        offsets, all_fields if upgrade else node.fields, batch_size=ctx.config.batch_size
    ):
        wanted = batch
        if upgrade:
            for name, column in batch.columns.items():
                cached_columns[name].extend(column)
            if nested:
                cached_counts.extend(batch.record_row_counts)
            # The complete tuples are for the cache; the query still sees only
            # its own fields, as it does on every other path.
            wanted = batch.project(node.fields)
        mask = batch_predicate(wanted)
        indexes = batch.first_true_per_record(mask) if dedupe else np.nonzero(mask)[0]
        if len(indexes) == batch.row_count:
            output.append(wanted)
        elif len(indexes):
            output.append(wanted.take(indexes))
    scan_time = time.perf_counter() - started
    ctx.report.cache_scan_time += scan_time

    if upgrade and entry.is_lazy:
        build_started = time.perf_counter()
        layout = build_layout(
            "columnar" if nested else ctx.config.default_flat_layout,
            source.schema if nested else source.flattened_schema,
            all_fields,
            columns=cached_columns,
            record_row_counts=cached_counts if nested else None,
        )
        build_time = time.perf_counter() - build_started
        ctx.report.caching_time += build_time
        if recache.upgrade_lazy(entry, layout, build_time):
            entry.fields = all_fields
            ctx.report.lazy_upgrades += 1

    recache.record_reuse(entry, scan_time=scan_time, lookup_time=node.lookup_time)
    return output


def _initial_admission_mode(ctx: ExecutionContext, source: DataSource) -> str | None:
    """The admission mode fixed before scanning, or ``None`` to sample first."""
    config = ctx.config
    recache = ctx.recache
    assert recache is not None
    if config.always_lazy:
        return "lazy"
    if not config.adaptive_admission:
        return "eager"
    if recache.admission.should_skip_sampling(recache.has_hot_entries(source.name)):
        return "eager"
    return None


@dataclass
class _MaterializeRun:
    """The state of one materializing scan (one cache miss), batch to batch."""

    ctx: ExecutionContext
    node: MaterializeNode
    source: DataSource
    batch_predicate: Callable[[RecordBatch], np.ndarray]
    #: the query answers once per record (no nested field read)
    dedupe_output: bool
    nested: bool
    layout_name: str
    #: every leaf of the source: the cached entry can serve any later query
    cache_fields: list[str]
    #: "eager" / "lazy", or ``None`` while the admission sample is running
    mode: str | None
    #: times one batch's caching block in every N once the sample is over
    timer: SampledTimer
    #: query-relative clock and caching time when the scan started
    to1: float
    tc1: float
    caching_seconds: float = 0.0
    records_seen: int = 0
    bytes_seen: int = 0
    output: list[RecordBatch] = field(default_factory=list)
    #: eager payload: full-width columns of the satisfying records (+ rows per
    #: record for nested sources), or their decoded records for Parquet
    columns: dict[str, list] = field(init=False)
    row_counts: list[int] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)
    #: lazy payload: file ordinals of the satisfying records
    offsets: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.columns = {name: [] for name in self.cache_fields}


def _materialize_batch(run: _MaterializeRun, batch: RecordBatch) -> None:
    """The materializer's loop body: mask, output, cache payload, admission sample.

    The scan has converted only the fields the query needs; *caching* eagerly
    means additionally converting the remaining fields of every satisfying
    record — from the payload the scan attached, never from the file again —
    and that extra work is what is timed as caching time (Section 5.1: ``c``
    includes "the time spent parsing the cached fields of each record"):
    exact timestamps around the caching block while sampling, one
    :class:`SampledTimer` start/stop pair per batch afterwards.
    """
    run.bytes_seen += batch.total_record_bytes
    mask = run.batch_predicate(batch)
    out_indexes = batch.first_true_per_record(mask) if run.dedupe_output else np.nonzero(mask)[0]
    kept = None
    if len(out_indexes) == batch.row_count:
        # Everything matched: pass the columns through without a copy, but
        # shed the caching payload so the query output does not pin it.
        kept = batch.project(batch.field_names())
    elif len(out_indexes):
        kept = batch.take(out_indexes)
    if kept is not None:
        run.output.append(kept)

    sampling = run.mode is None
    if kept is not None or sampling:
        if sampling:
            cache_started = time.perf_counter()
        else:
            run.timer.maybe_start()
        if kept is not None:
            _collect_cache_payload(run, batch, mask, out_indexes, kept)
        if sampling:
            run.caching_seconds += time.perf_counter() - cache_started
        else:
            run.timer.maybe_stop()

    run.records_seen += batch.record_count
    if sampling and run.records_seen >= run.ctx.config.admission_sample_records:
        _decide_admission(run)


def _collect_cache_payload(
    run: _MaterializeRun,
    batch: RecordBatch,
    mask: np.ndarray,
    out_indexes: np.ndarray,
    kept: RecordBatch,
) -> None:
    """Add one batch's satisfying records to the run's lazy and/or eager payload."""
    # Flat source: rows are records, and out_indexes is the satisfying set.
    satisfied = batch.records_with_true(mask) if run.nested else out_indexes
    picked = satisfied.tolist()  # rowwise-fallback: record ordinals leave NumPy once per batch, to index the payload list and to be stored as lazy offsets
    if run.mode != "eager":
        run.offsets.extend(map(run.records_seen.__add__, picked))
    if run.mode == "lazy":
        return
    payload = batch.records
    if len(picked) < batch.record_count:
        payload = list(map(payload.__getitem__, picked))
    if run.nested and run.layout_name == "parquet":
        run.records.extend(payload)
        return
    # The query's own columns are already converted (and, for a flat source,
    # already gathered into ``kept``); only the rest comes from the payload.
    reuse = {} if run.nested else kept.columns
    fresh, row_counts = run.source.plugin.columns_from_payload(
        payload, [name for name in run.cache_fields if name not in reuse]
    )
    for name, column in run.columns.items():
        column.extend(reuse[name] if name in reuse else fresh[name])
    if run.nested:
        run.row_counts.extend(row_counts)


def _build_cache_layout(run: _MaterializeRun):
    """The eager layout over what the run has collected (``ValueError`` if degenerate)."""
    if run.nested and run.layout_name == "parquet":
        return build_layout("parquet", run.source.schema, run.cache_fields, records=run.records)
    return build_layout(
        run.layout_name,
        run.source.schema if run.nested else run.source.flattened_schema,
        run.cache_fields,
        columns=run.columns,
        record_row_counts=run.row_counts or None,
    )


def _decide_admission(run: _MaterializeRun) -> None:
    """Build the sample cache, extrapolate the overhead, pick eager or lazy."""
    ctx = run.ctx
    recache = ctx.recache
    assert recache is not None
    # Building the sample's eager cache is genuine caching work: include it in
    # the sampled caching time so the extrapolation sees the full cost.
    build_started = time.perf_counter()
    with contextlib.suppress(ValueError):  # empty sample: nothing to build
        _build_cache_layout(run)
    run.caching_seconds += time.perf_counter() - build_started

    sample = AdmissionSample(
        to1=run.to1,
        tc1=run.tc1,
        to2=time.perf_counter() - ctx.query_started,
        tc2=ctx.report.caching_time + run.caching_seconds,
        sample_records=run.records_seen,
        total_records=_estimate_total_records(run.source, run.records_seen, run.bytes_seen),
    )
    if ctx.config.admission_extrapolation:
        decision = recache.admission.decide(sample)
    else:
        decision = recache.admission.decide_naive(sample)
    if decision is AdmissionDecision.LAZY:
        run.mode = "lazy"
        run.columns, run.row_counts, run.records = {}, [], []
    else:
        run.mode = "eager"
        run.offsets = []


def _admit(run: _MaterializeRun, elapsed: float) -> None:
    """Admit the materialized result into ReCache (adds the build to caching time)."""
    ctx, node = run.ctx, run.node
    recache = ctx.recache
    assert recache is not None
    if run.mode == "lazy":
        entry = recache.admit_lazy(
            source=node.source,
            source_format=run.source.format,
            predicate=node.predicate,
            fields=run.cache_fields,
            offsets=run.offsets,
            operator_time=max(0.0, elapsed - run.caching_seconds),
            caching_time=run.caching_seconds,
        )
        if entry is not None:
            ctx.report.admissions["lazy"] += 1
        return

    build_started = time.perf_counter()
    try:
        layout = _build_cache_layout(run)
    except ValueError:
        # A degenerate result (empty source, zero satisfying records, or
        # inconsistent buffered rows) cannot be materialized into a layout.
        # The sampling path guards its trial build the same way; skip the
        # admission cleanly instead of failing the whole query.
        recache.note_skipped_admission(node.source, node.predicate)
        run.caching_seconds += time.perf_counter() - build_started
        return
    run.caching_seconds += time.perf_counter() - build_started
    entry = recache.admit_eager(
        source=node.source,
        source_format=run.source.format,
        predicate=node.predicate,
        fields=run.cache_fields,
        layout=layout,
        operator_time=max(0.0, elapsed - run.caching_seconds),
        caching_time=run.caching_seconds,
    )
    if entry is not None:
        ctx.report.admissions["eager"] += 1


def _estimate_total_records(source: DataSource, sample_records: int, bytes_seen: int) -> int:
    """Estimate the file's record count from the bytes consumed by the sample."""
    if source.plugin.positional_map.complete:
        return source.plugin.positional_map.record_count
    if bytes_seen <= 0:
        return sample_records
    try:
        file_size = source.file_size()
    except OSError:  # recheck-lint: allow(no-swallow) — estimate, not containment
        return sample_records
    per_record = bytes_seen / sample_records
    return max(sample_records, int(file_size / max(1.0, per_record)))


# ===========================================================================
# Plan nodes over record batches
# ===========================================================================
def _execute_batches(plan: PlanNode, ctx: ExecutionContext) -> list[RecordBatch]:
    """Evaluate a plan subtree, returning its output as record batches."""
    if isinstance(plan, JoinNode):
        left = _execute_batches(plan.left, ctx)
        right = _execute_batches(plan.right, ctx)
        started = time.perf_counter()
        joined = hash_join_batches(left, right, plan.left_key, plan.right_key)
        ctx.report.operator_time += time.perf_counter() - started
        return joined
    if isinstance(plan, ProjectNode):
        return project_batches(_execute_batches(plan.child, ctx), plan.fields)
    if isinstance(plan, CacheScanNode):
        return _execute_cache_scan_batched(plan, ctx)
    if isinstance(plan, MaterializeNode):
        return _execute_materialize_batched(plan, ctx)
    if isinstance(plan, SelectNode):
        return _execute_select_batched(plan, ctx)
    if isinstance(plan, ScanNode):
        source = ctx.catalog.get(plan.source)
        return list(source.scan_batches(plan.fields or None, batch_size=ctx.config.batch_size))
    if isinstance(plan, AggregateNode):
        batches = _execute_batches(plan.child, ctx)
        aggregates = compile_aggregates(plan.aggregates)
        return [aggregate_batches(batches, aggregates, plan.group_by)]
    raise TypeError(f"cannot execute plan node of type {type(plan).__name__}")


def _execute_select_batched(node: SelectNode, ctx: ExecutionContext) -> list[RecordBatch]:
    """Select over a raw scan with no materializer (caching disabled)."""
    batch_predicate = compile_batch_predicate(node.predicate)
    if not isinstance(node.child, ScanNode):
        return filter_batches(_execute_batches(node.child, ctx), batch_predicate)
    source = ctx.catalog.get(node.child.source)
    fields = node.child.fields
    dedupe = _record_level_semantics(source, fields)
    started = time.perf_counter()
    output = filter_batches(
        source.scan_batches(fields, batch_size=ctx.config.batch_size),
        batch_predicate,
        dedupe_records=dedupe,
    )
    ctx.report.operator_time += time.perf_counter() - started
    return output


def _execute_cache_scan_batched(node: CacheScanNode, ctx: ExecutionContext) -> list[RecordBatch]:
    entry = node.entry
    recache = ctx.recache
    assert recache is not None
    ctx.report.lookup_time += node.lookup_time
    if node.exact:
        ctx.report.exact_hits += 1
    else:
        ctx.report.subsumption_hits += 1

    # Snapshot the entry's mutable state once: a concurrent lazy upgrade or
    # layout switch writes the new layout before clearing the offsets, so a
    # non-None offsets list is always usable and a None one implies the layout
    # reference is already valid.  Scans then run entirely on local references,
    # outside any cache lock.
    offsets = entry.lazy_offsets
    if offsets is not None:
        # Lazy reuse re-reads the recorded lines through the positional map
        # and (on first reuse) upgrades the entry to an eager one.
        try:
            return _execute_lazy_cache_scan(node, ctx, offsets)
        except DeadlineExceeded:
            raise
        except Exception:
            _quarantine_entry(node, ctx)
            return _degraded_raw_batches(node, ctx)

    layout = entry.layout
    assert layout is not None
    wanted = node.fields
    schema = layout.schema
    known = set(schema.leaf_paths())
    accessed_nested = any(
        schema.is_nested_path(path) for path in wanted if path in known
    )
    dedupe = bool(schema.nested_paths()) and not accessed_nested

    started = time.perf_counter()
    layout_name = layout.layout_name
    try:
        batches, scanned_rows = _scan_layout_batches(node, ctx, layout, dedupe)
    except DeadlineExceeded:
        raise
    except Exception:
        ctx.report.cache_scan_time += time.perf_counter() - started
        _quarantine_entry(node, ctx)
        return _degraded_raw_batches(node, ctx)
    scan_time = time.perf_counter() - started
    ctx.report.cache_scan_time += scan_time

    _record_cache_scan_reuse(
        node, ctx, layout_name, scan_time, scanned_rows, wanted, accessed_nested
    )
    return batches


def _scan_layout_batches(
    node: CacheScanNode, ctx: ExecutionContext, layout, dedupe: bool
) -> tuple[list[RecordBatch], int]:
    """The batched layout-scan body of :func:`_execute_cache_scan_batched`.

    Factored out so the caller can wrap the whole scan in the poisoned-entry
    containment handler; returns ``(batches, scanned_rows)``.
    """
    wanted = node.fields
    layout_name = layout.layout_name
    batches: list[RecordBatch] = []
    ranges = _vectorizable_ranges(node.residual_predicate, layout, wanted)
    if ranges is not None:
        # Columnar/parquet fast path: one vectorized mask over the cached
        # column arrays, matching rows gathered straight into batch columns.
        # Parquet's mask runs on the short per-record parent stripes, so its
        # scan cardinality is records, not flattened rows.
        batch = layout.range_filtered_batch(ranges, fields=wanted, dedupe_records=dedupe)
        if batch.row_count:
            batches.append(batch)
        if layout_name == "parquet":
            scanned_rows = layout.record_count
        else:
            scanned_rows = layout.flattened_row_count
    else:
        batch_predicate = compile_batch_predicate(node.residual_predicate)
        scan_kwargs = {}
        if dedupe and layout_name in ("columnar", "row"):
            scan_kwargs["dedupe_records"] = True
        if layout_name in ("columnar", "parquet") and node.residual_predicate is not None:
            # Pre-build the layout's shared float64 views for the predicate's
            # columns so every batch mask slices one cached array instead of
            # re-converting its column lists (predicate fields are always part
            # of the scanned fields, so the columns exist; parquet only seeds
            # views on its flat fast path, where batch rows are records).
            scan_kwargs["numeric_fields"] = sorted(
                node.residual_predicate.referenced_fields()
            )
        scanned_rows = 0
        for batch in layout.scan_batches(
            fields=wanted, batch_size=ctx.config.batch_size, **scan_kwargs
        ):
            scanned_rows += batch.row_count
            indexes = np.nonzero(batch_predicate(batch))[0]
            if len(indexes) == batch.row_count:
                batches.append(batch)  # everything matched: no copy needed
            elif len(indexes):
                batches.append(batch.take(indexes))
        if layout_name in ("columnar", "row") and dedupe:
            # The dedup scan still walks every flattened row internally.
            scanned_rows = layout.flattened_row_count
    return batches, scanned_rows


def _execute_materialize_batched(node: MaterializeNode, ctx: ExecutionContext) -> list[RecordBatch]:
    """The materializer (cache-miss path) over record batches.

    Each scanned batch goes through :func:`_materialize_batch`; when the scan
    ends the collected payload is admitted eagerly (a layout over every leaf
    field of the satisfying records, built from columns) or lazily (their
    file ordinals), as the admission sample decided.
    """
    source = ctx.catalog.get(node.source)
    recache = ctx.recache
    config = ctx.config
    batch_predicate = compile_batch_predicate(node.predicate)
    nested = source.is_nested()
    ctx.report.misses += 1

    dedupe_output = _record_level_semantics(source, node.fields)
    batch_size = config.batch_size

    if recache is None or not config.caching_enabled:
        started = time.perf_counter()
        output = filter_batches(
            source.scan_batches(node.fields, batch_size=batch_size),
            batch_predicate,
            dedupe_records=dedupe_output,
        )
        ctx.report.operator_time += time.perf_counter() - started
        return output

    run = _MaterializeRun(
        ctx=ctx,
        node=node,
        source=source,
        batch_predicate=batch_predicate,
        dedupe_output=dedupe_output,
        nested=nested,
        layout_name=config.default_nested_layout if nested else config.default_flat_layout,
        cache_fields=source.flattened_schema.field_names(),
        mode=_initial_admission_mode(ctx, source),
        # One timing decision covers a whole batch, so the per-batch sampling
        # rate is scaled by the batch size: the expected number of *records*
        # whose caching work gets timed follows ``timing_sample_rate``, while
        # the clock overhead per record shrinks by ~batch_size (at the default
        # 1024-record batches and 1% record rate every batch is timed).
        timer=SampledTimer(sample_rate=min(1.0, config.timing_sample_rate * batch_size)),
        to1=time.perf_counter() - ctx.query_started,
        tc1=ctx.report.caching_time,
    )
    sample_limit = config.admission_sample_records

    operator_started = time.perf_counter()
    for scanned in source.scan_batches(node.fields, batch_size=batch_size, with_payload=True):
        # Admission only happens after the loop completes, so aborting on a
        # deadline mid-scan leaves no cache state or budget reservation behind.
        _check_deadline(ctx)
        # A batch that straddles the end of the admission sample is split so
        # the decision happens after exactly ``sample_limit`` records.
        boundary = sample_limit - run.records_seen
        if run.mode is None and 0 < boundary < scanned.record_count:
            _materialize_batch(run, scanned.slice_records(0, boundary))
            _materialize_batch(run, scanned.slice_records(boundary, scanned.record_count))
        else:
            _materialize_batch(run, scanned)

    elapsed = time.perf_counter() - operator_started
    run.caching_seconds += run.timer.estimated_total
    if run.mode is None:
        run.mode = "eager"
    _admit(run, elapsed)

    ctx.report.operator_time += max(0.0, elapsed - run.caching_seconds)
    ctx.report.caching_time += run.caching_seconds
    return run.output
