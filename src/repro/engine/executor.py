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
(one clock pair per batch), extrapolates the caching overhead to the end of the
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

from repro.core.admission import AdmissionDecision, AdmissionSample
from repro.core.cache_entry import LayoutObservation
from repro.core.cache_manager import ReCache
from repro.core.config import ReCacheConfig
from repro.core.errors import (
    CorruptedCacheError,
    DeadlineExceeded,
    TransientScanError,
    WorkerCrashed,
)
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
from repro.engine.compiler import compile_batch_predicate
from repro.engine.operators import (
    aggregate_batches,
    filter_batches,
    hash_join_batches,
    project_batches,
    select_rows,
)
from repro.engine.procpool import ScanTask
from repro.engine.types import ColumnarResult
from repro.faults import runtime as faults
from repro.formats.datafile import DataSource, DataSourceCatalog
from repro.layouts import build_layout


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
    #: duplicates of one execution cannot report N full queue waits.
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
    #: cache lock with their bytes released)
    quarantined_entries: int = 0
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


@dataclass
class ExecutionContext:
    """Everything the executor needs while executing one plan.

    One context is created per query execution (the engine never shares a
    context between threads), so the report and timing fields need no locking;
    only the cache manager behind ``recache`` is shared.
    """

    catalog: DataSourceCatalog
    recache: ReCache
    config: ReCacheConfig
    report: QueryReport
    sequence: int
    query_started: float
    #: absolute ``time.perf_counter()`` instant after which execution must
    #: abort with :class:`DeadlineExceeded`; ``None`` disables the checks
    deadline_at: float | None = None


def _check_deadline(ctx: ExecutionContext) -> None:
    """Raise :class:`DeadlineExceeded` once the context's deadline passes.

    Called once per raw batch of a cache miss (the materializer's scan
    loop); cost is one comparison when no deadline is set.  Cache hits and
    caching-disabled raw scans make no mid-flight check:
    :meth:`~repro.engine.session.QueryEngine.execute` checks before every
    attempt and between retries.
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
    switched = ctx.recache.record_reuse(
        node.entry, scan_time=scan_time, lookup_time=node.lookup_time, observation=observation
    )
    if switched:
        ctx.report.layout_switches += 1


# ---------------------------------------------------------------------------
# Poisoned-entry containment
# ---------------------------------------------------------------------------
def _quarantine_entry(node: CacheScanNode, ctx: ExecutionContext) -> None:
    """Invalidate a cache entry whose scan raised (the audited containment sink).

    The entry is evicted under the cache lock with its occupancy released;
    the query then degrades to a raw-source scan instead of failing.  Racing
    queries that already hold the entry either finish their own scan or hit
    the same fault and find the entry already gone.
    """
    if ctx.recache.quarantine(node.entry):
        ctx.report.quarantined_entries += 1


def _degraded_raw_batches(node: CacheScanNode, ctx: ExecutionContext) -> list[RecordBatch]:  # rowwise-fallback: degraded re-scan after quarantine trades throughput for containment
    """Serve a cache-scan node from the raw source after quarantining its entry.

    ``residual_predicate`` always carries the full table predicate (even on
    exact hits), so re-applying it over a fresh raw scan reproduces the cache
    scan's output bit for bit.
    """
    ctx.report.degraded_scans += 1
    return _raw_filtered_scan(ctx, node.entry.source, node.fields, node.residual_predicate)


def _raw_filtered_scan(
    ctx: ExecutionContext, source_name: str, fields: list[str], predicate
) -> list[RecordBatch]:
    """Filter a raw-source scan by ``predicate``: no materializer, no cache."""
    source = ctx.catalog.get(source_name)
    batch_predicate = compile_batch_predicate(predicate)
    dedupe = _record_level_semantics(source, fields)
    started = time.perf_counter()
    output = filter_batches(
        source.scan_batches(fields, batch_size=ctx.config.batch_size),
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
    if any(not interval.low_inclusive for interval in intervals.values()):
        # Closed conjuncts on one field intersect to a closed interval unless
        # they contradict; the empty intersection is the open ``(x, x)``,
        # which as a closed range would select ``x``.
        return None
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
    except OSError:
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
    except Exception:
        # Offload is opportunistic: any non-typed failure (stale segment
        # name, pipe hiccup) falls back to the in-process path, which
        # re-raises real faults itself.
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
    source = ctx.catalog.get(entry.source)
    batch_predicate = compile_batch_predicate(node.residual_predicate)
    upgrade = recache.admission.upgrades_lazy and not entry.upgrade_blocked
    # When the lazy entry is about to be upgraded, parse complete tuples so the
    # resulting eager cache can serve any later query over this source.
    all_fields = source.flattened_schema.field_names()
    nested = source.is_nested()
    dedupe = _record_level_semantics(source, node.fields)

    started = time.perf_counter()
    output: list[RecordBatch] = []
    cached_columns: dict[str, list] = {name: [] for name in all_fields}
    cached_counts: list[int] = []
    # The complete tuples are for the cache; the query still sees only its
    # own fields, as it does on every other path.
    output_fields = node.fields if upgrade else None
    for batch in source.read_record_batches(
        offsets, all_fields if upgrade else node.fields, batch_size=ctx.config.batch_size
    ):
        if upgrade:
            for name, column in batch.columns.items():
                cached_columns[name].extend(column)
            if nested:
                cached_counts.extend(batch.record_row_counts)
        selected, _ = select_rows(batch, batch_predicate(batch), dedupe, output_fields)
        if selected is not None:
            output.append(selected)
    scan_time = time.perf_counter() - started
    ctx.report.cache_scan_time += scan_time

    if upgrade and entry.is_lazy:
        build_started = time.perf_counter()
        layout = build_layout(
            "columnar",
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
    #: the admission decision, or ``None`` while the admission sample is running
    mode: AdmissionDecision | None
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
    includes "the time spent parsing the cached fields of each record"): one
    clock pair around each batch's caching block, about 0.1% of the records at
    the default batch size (the paper asks for fewer than 1%).
    """
    run.bytes_seen += batch.total_record_bytes
    mask = run.batch_predicate(batch)
    kept, out_indexes = select_rows(batch, mask, run.dedupe_output)
    if kept is not None:
        run.output.append(kept)
        cache_started = time.perf_counter()
        _collect_cache_payload(run, batch, mask, out_indexes, kept)
        run.caching_seconds += time.perf_counter() - cache_started

    run.records_seen += batch.record_count
    if run.mode is None and run.records_seen >= run.ctx.recache.admission.sample_records:
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
    if run.mode is not AdmissionDecision.EAGER:
        run.offsets.extend(map(run.records_seen.__add__, picked))
    if run.mode is AdmissionDecision.LAZY:
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
    """Build the sample cache, estimate the overhead, pick eager or lazy."""
    ctx = run.ctx
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
    run.mode = ctx.recache.admission.decide(sample)
    if run.mode is AdmissionDecision.LAZY:
        run.columns, run.row_counts, run.records = {}, [], []
    else:
        run.offsets = []


def _admit(run: _MaterializeRun, elapsed: float) -> None:
    """Admit the materialized result into ReCache (adds the build to caching time)."""
    ctx, node = run.ctx, run.node
    recache = ctx.recache
    if run.mode is AdmissionDecision.LAZY:
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
        recache.note_skipped_admission()
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
    except OSError:  # only an estimate: the sample is a safe floor
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
        return _execute_cache_scan(plan, ctx)
    if isinstance(plan, MaterializeNode):
        return _execute_materialize(plan, ctx)
    if isinstance(plan, SelectNode):
        return _execute_select(plan, ctx)
    if isinstance(plan, ScanNode):
        source = ctx.catalog.get(plan.source)
        return list(source.scan_batches(plan.fields or None, batch_size=ctx.config.batch_size))
    if isinstance(plan, AggregateNode):
        batches = _execute_batches(plan.child, ctx)
        return [aggregate_batches(batches, plan.aggregates, plan.group_by)]
    raise TypeError(f"cannot execute plan node of type {type(plan).__name__}")


def _execute_select(node: SelectNode, ctx: ExecutionContext) -> list[RecordBatch]:
    """Select with no materializer (the caching-disabled baseline)."""
    if isinstance(node.child, ScanNode):
        return _raw_filtered_scan(ctx, node.child.source, node.child.fields, node.predicate)
    batch_predicate = compile_batch_predicate(node.predicate)
    return filter_batches(_execute_batches(node.child, ctx), batch_predicate)


def _execute_cache_scan(node: CacheScanNode, ctx: ExecutionContext) -> list[RecordBatch]:
    entry = node.entry
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
        except (DeadlineExceeded, TransientScanError):
            # A raw-file fault says nothing about the entry: the query is
            # retried (see QueryEngine.execute).
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
    """The layout-scan body of :func:`_execute_cache_scan`.

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
        if dedupe and layout_name == "columnar":
            scan_kwargs["dedupe_records"] = True
        if node.residual_predicate is not None:
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
            selected, _ = select_rows(batch, batch_predicate(batch))
            if selected is not None:
                batches.append(selected)
        if layout_name == "columnar" and dedupe:
            # The dedup scan still walks every flattened row internally.
            scanned_rows = layout.flattened_row_count
    return batches, scanned_rows


def _execute_materialize(node: MaterializeNode, ctx: ExecutionContext) -> list[RecordBatch]:
    """The materializer (cache-miss path) over record batches.

    Each scanned batch goes through :func:`_materialize_batch`; when the scan
    ends the collected payload is admitted eagerly (a layout over every leaf
    field of the satisfying records, built from columns) or lazily (their
    file ordinals), as the admission sample decided.
    """
    source = ctx.catalog.get(node.source)
    admission = ctx.recache.admission
    config = ctx.config
    nested = source.is_nested()
    ctx.report.misses += 1
    batch_size = config.batch_size

    run = _MaterializeRun(
        ctx=ctx,
        node=node,
        source=source,
        batch_predicate=compile_batch_predicate(node.predicate),
        dedupe_output=_record_level_semantics(source, node.fields),
        nested=nested,
        layout_name=config.default_nested_layout if nested else "columnar",
        cache_fields=source.flattened_schema.field_names(),
        mode=admission.initial_mode(ctx.recache.has_hot_entries(source.name)),
        to1=time.perf_counter() - ctx.query_started,
        tc1=ctx.report.caching_time,
    )
    sample_limit = admission.sample_records

    operator_started = time.perf_counter()
    for scanned in source.scan_batches(node.fields, batch_size=batch_size, with_payload=True):
        # Admission only happens after the loop completes, so aborting on a
        # deadline mid-scan leaves no cache state behind.
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
    if run.mode is None:
        run.mode = AdmissionDecision.EAGER
    _admit(run, elapsed)

    ctx.report.operator_time += max(0.0, elapsed - run.caching_seconds)
    ctx.report.caching_time += run.caching_seconds
    return run.output
