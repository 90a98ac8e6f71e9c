"""The concurrent serving layer: a thread-pool front-end for one shared cache.

:class:`EngineServer` wraps a :class:`~repro.engine.session.QueryEngine` with a
``ThreadPoolExecutor`` so many clients can issue queries against one shared
ReCache.  Each query executes with its own
:class:`~repro.engine.executor.ExecutionContext` and
:class:`~repro.engine.executor.QueryReport` — nothing per-query is shared
between threads — while lookups, admissions and evictions synchronize on the
cache manager's one lock (see :mod:`repro.core.cache_manager`).

Two submission paths:

* :meth:`EngineServer.submit` — one query, one future, one pool task (the
  classic per-request path);
* :meth:`EngineServer.submit_batch` / :meth:`EngineServer.serve_all` — many
  queries at once.  The batch is *coalesced* (identical queries execute once;
  the duplicates' futures resolve with a lightweight copy marked
  ``coalesced=1``) and then *grouped* by data source and predicate overlap:
  each overlap group runs as one pool task via
  :meth:`~repro.engine.session.QueryEngine.execute_group`, widest predicate
  first, so one scan feeds several requests and the narrower queries in the
  group are served from the cache the first one warmed.  Per-query futures
  resolve as results complete, not when the whole batch finishes.

Identical queries coalesce across ``Query.result_format`` (it shapes only the
representation) and each duplicate's report carries the shared result in its
own query's format; they coalesce only when their deadlines are equal.

Backpressure: the server admits at most ``max_pending_queries`` queries into
its queue; further ``submit``/``submit_batch`` calls block until workers drain
the backlog (a batch is admitted atomically once the depth falls below the
bound).  Every report carries ``queue_wait_time`` (blocking plus queue
residency) and ``queue_depth`` (the backlog observed at enqueue), which
:func:`merge_reports` aggregates for a serving window.

:func:`merge_reports` folds the per-query reports of a serving window into one
aggregate ``QueryReport`` (summed counters and times, results dropped), which
is what the multi-client workload driver consumes.
"""

from __future__ import annotations

# recheck-lint: check-futures — every path that creates a per-query future
# must reach set_result/set_exception, including shutdown/exception paths.
# recheck-lint: check-no-swallow — except blocks must re-raise, wrap in a
# typed error, or route through an audited containment sink.

import math
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.core.config import ReCacheConfig
from repro.core.errors import DeadlineExceeded, QueryRejected
from repro.engine.executor import QueryReport
from repro.faults import runtime as faults
from repro.engine.expressions import RangePredicate
from repro.engine.query import Query
from repro.engine.session import QueryEngine
from repro.engine.types import ColumnarResult, RecordType
from repro.formats.datafile import DataSource


def merge_reports(reports: Iterable[QueryReport], label: str = "aggregate") -> QueryReport:
    """Merge per-query reports into one aggregate report.

    Counters and times are summed; the per-query result rows are intentionally
    dropped (an aggregate over many queries has no meaningful row set) and
    ``rows_returned`` becomes the total row count served.  Admission counters
    are carried over key by key — *every* key, not a hardcoded subset — and
    the serving-tier counters aggregate as total wait time, total coalesced
    requests and the deepest queue observed in the window.
    """
    merged = QueryReport(label=label)
    for report in reports:
        merged.rows_returned += report.rows_returned
        merged.total_time += report.total_time
        merged.operator_time += report.operator_time
        merged.caching_time += report.caching_time
        merged.cache_scan_time += report.cache_scan_time
        merged.lookup_time += report.lookup_time
        merged.exact_hits += report.exact_hits
        merged.subsumption_hits += report.subsumption_hits
        merged.misses += report.misses
        merged.layout_switches += report.layout_switches
        merged.lazy_upgrades += report.lazy_upgrades
        merged.queue_wait_time += report.queue_wait_time
        merged.coalesced += report.coalesced
        merged.coalesced_wait_time += report.coalesced_wait_time
        merged.offloaded += report.offloaded
        merged.retries += report.retries
        merged.degraded_scans += report.degraded_scans
        merged.quarantined_entries += report.quarantined_entries
        merged.shed += report.shed
        merged.deadline_exceeded += report.deadline_exceeded
        if report.queue_depth > merged.queue_depth:
            merged.queue_depth = report.queue_depth
        for kind, count in report.admissions.items():
            merged.admissions[kind] = merged.admissions.get(kind, 0) + count
    return merged


# ---------------------------------------------------------------------------
# Batched submission plumbing
# ---------------------------------------------------------------------------
@dataclass
class _Submission:
    """One client request: a query plus the future its report resolves."""

    query: Query
    future: "Future[QueryReport]"
    enqueued_at: float
    queue_depth: int


@dataclass
class _Execution:
    """One engine execution serving one or more coalesced submissions."""

    query: Query
    submissions: list[_Submission] = field(default_factory=list)


def _coalesce(submissions: Sequence[_Submission]) -> list[_Execution]:
    """Collapse identical queries in a batch into single executions.

    The first submission of each distinct (query signature, deadline) becomes
    the primary (its report is the real execution report); later duplicates
    ride along and resolve with a coalesced copy.  The deadline is part of
    the key because the execution runs under the primary's: a duplicate must
    neither fail on a deadline it never set nor escape its own.
    """
    by_key: dict[tuple[str, float | None], _Execution] = {}
    executions: list[_Execution] = []
    for submission in submissions:
        key = (submission.query.signature(), submission.query.deadline)
        execution = by_key.get(key)
        if execution is None:
            execution = _Execution(query=submission.query)
            by_key[key] = execution
            executions.append(execution)
        execution.submissions.append(submission)
    return executions


def _convert_results(results: "list[dict] | ColumnarResult") -> "list[dict] | ColumnarResult":
    """One execution's result set in the other representation.

    Coalescing works across result formats (the format is not part of the
    query signature), so a duplicate may ask for a different representation
    than the primary execution produced; the conversion is loss-free in both
    directions (``ColumnarResult.to_rows`` is the exact rows exit).
    """
    if isinstance(results, ColumnarResult):
        return results.to_rows()
    return ColumnarResult.from_rows(results)


def _interval_of(query: Query) -> tuple[str, float, float] | None:
    """The (field, low, high) scan interval of a single-table range query.

    ``None`` marks queries the overlap grouping cannot reason about
    (multi-table joins, non-range predicates) — they each form their own
    group and keep full pool parallelism.
    """
    if len(query.tables) != 1:
        return None
    predicate = query.tables[0].predicate
    if predicate is None:
        return ("*", -math.inf, math.inf)
    if isinstance(predicate, RangePredicate):
        return (predicate.field, predicate.low, predicate.high)
    return None


def group_batch(executions: Sequence[_Execution]) -> list[list[_Execution]]:
    """Group a batch's executions by data source and predicate overlap.

    Single-table range queries over the same (source, field) whose intervals
    form an overlap-connected chain share one group — one worker executes them
    widest-first, so the head query warms the cache and the rest reuse it
    (exact or subsumption hits) without re-queuing.  Everything else runs as
    its own group so disjoint work keeps the whole pool busy.
    """
    groups: list[list[_Execution]] = []
    clusters: dict[tuple[str, str], list[tuple[float, float, _Execution]]] = {}
    for execution in executions:
        interval = _interval_of(execution.query)
        if interval is None:
            groups.append([execution])
            continue
        field_name, low, high = interval
        key = (execution.query.tables[0].source, field_name)
        clusters.setdefault(key, []).append((low, high, execution))
    for spans in clusters.values():
        spans.sort(key=lambda item: item[0])
        current: list[tuple[float, float, _Execution]] = []
        current_high = -math.inf
        for low, high, execution in spans:
            if current and low > current_high:
                groups.append(_order_for_cache_reuse(current))
                current = []
                current_high = -math.inf
            current.append((low, high, execution))
            current_high = max(current_high, high)
        if current:
            groups.append(_order_for_cache_reuse(current))
    return groups


def _order_for_cache_reuse(
    spans: Sequence[tuple[float, float, _Execution]]
) -> list[_Execution]:
    """Widest interval first (most likely to subsume the rest), stable ties."""
    return [item[2] for item in sorted(spans, key=lambda item: -(item[1] - item[0]))]


class EngineServer:
    """Serves queries from many clients against one shared query engine.

    Usable as a context manager; otherwise call :meth:`shutdown` when done.
    Register every data source before the first query is submitted — source
    registration is not synchronized against in-flight queries.
    """

    #: Lock discipline, machine-checked by ``python -m repro.analysis.lint``.
    #: One lock guards the lifecycle flag and the queue accounting; the
    #: backpressure condition shares it (see ``__init__``), which the alias
    #: declaration below makes visible to the analyzer.
    GUARDED_BY = {
        "_closed": "_lifecycle",
        "_pending": "_lifecycle",
        "peak_queue_depth": "_lifecycle",
        "coalesced_served": "_lifecycle",
    }
    LOCK_ALIASES = {"_backpressure": "_lifecycle"}

    def __init__(
        self,
        engine: QueryEngine | None = None,
        config: ReCacheConfig | None = None,
        max_workers: int | None = None,
        response_hook: Callable[[QueryReport], None] | None = None,
        max_pending: int | None = None,
    ) -> None:
        if engine is None:
            engine = QueryEngine(config)
        elif config is not None:
            raise ValueError("pass either an engine or a config, not both")
        self.engine = engine
        self.max_workers = max_workers if max_workers is not None else engine.config.max_workers
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_pending = (
            max_pending if max_pending is not None else engine.config.max_pending_queries
        )
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        #: called in the worker thread after each execution, before the future
        #: resolves — the place where a network server would serialize the
        #: result and write it to the client's socket.  The serving example
        #: uses it to model that per-request delivery latency.  Coalesced
        #: duplicates get a delivery call of their own.
        self.response_hook = response_hook
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="recache-serve"
        )
        # One lock guards the lifecycle flag AND the pending-queue accounting:
        # a submit racing a shutdown either fully enqueues (and the closing
        # pool drains it) or observes ``_closed`` and raises — never a query
        # half-queued into a closing pool.
        self._lifecycle = threading.Lock()
        self._backpressure = threading.Condition(self._lifecycle)
        self._closed = False
        self._pending = 0
        #: deepest pending backlog observed since construction
        self.peak_queue_depth = 0
        #: requests served from another request's execution (lifetime total)
        self.coalesced_served = 0

    # ------------------------------------------------------------------
    # Data source registration (delegates; do this before serving)
    # ------------------------------------------------------------------
    def register_csv(
        self, name: str, path: str | Path, schema: RecordType, delimiter: str = "|"
    ) -> DataSource:
        return self.engine.register_csv(name, path, schema, delimiter)

    def register_json(self, name: str, path: str | Path, schema: RecordType) -> DataSource:
        return self.engine.register_json(name, path, schema)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def submit(self, query: Query) -> "Future[QueryReport]":
        """Queue one query for execution; returns a future for its report.

        Blocks while the pending queue is at ``max_pending``.
        """
        return self.submit_batch([query])[0]

    def submit_batch(self, queries: Sequence[Query]) -> "list[Future[QueryReport]]":
        """Queue a batch of queries; returns one future per query, in order.

        The batch is coalesced and grouped by source/predicate overlap before
        hitting the worker pool (see the module docstring); futures resolve
        individually as their results complete.
        """
        queries = list(queries)
        if not queries:
            return []
        enqueued_at = time.perf_counter()
        with self._backpressure:
            if self._closed:
                raise RuntimeError("EngineServer is shut down")
            while self._pending >= self.max_pending:
                # Load shedding: a full queue on top of heavy eviction churn
                # means admitted work is evicting itself faster than it can be
                # reused — reject now (typed, before any future exists) rather
                # than queue work the cache cannot absorb.
                if self._should_shed():
                    raise QueryRejected(
                        f"queue full ({self._pending} pending) under eviction "
                        f"pressure; retry after the cache drains"
                    )
                self._backpressure.wait()
                if self._closed:
                    raise RuntimeError("EngineServer is shut down")
            depth = self._pending
            self._pending += len(queries)
            if self._pending > self.peak_queue_depth:
                self.peak_queue_depth = self._pending
            submissions: list[_Submission] = []
            groups: list[list[_Execution]] = []
            submitted = 0
            try:
                submissions = [
                    _Submission(query, Future(), enqueued_at, depth) for query in queries
                ]
                groups = group_batch(_coalesce(submissions))
                while submitted < len(groups):
                    # Submitted under the lifecycle lock: a concurrent shutdown
                    # cannot close the pool between the ``_closed`` check above
                    # and this enqueue.
                    self._pool.submit(self._serve_group, groups[submitted])
                    submitted += 1
            except BaseException as exc:
                # Roll back whatever never reached the pool: resolve its
                # futures exceptionally and return its pending slots.  Without
                # this, a failing enqueue would leak backpressure capacity
                # forever and leave clients blocked on futures that never
                # resolve.  Groups already in flight settle themselves.
                stranded = [
                    submission
                    for group in groups[submitted:]
                    for execution in group
                    for submission in execution.submissions
                ]
                if not groups:
                    stranded = submissions
                for submission in stranded:
                    if not submission.future.done():
                        submission.future.set_exception(exc)
                in_flight = sum(
                    len(execution.submissions)
                    for group in groups[:submitted]
                    for execution in group
                )
                self._pending -= len(queries) - in_flight
                self._backpressure.notify_all()
                raise
        return [submission.future for submission in submissions]

    def _should_shed(self) -> bool:
        """True when a full queue coincides with heavy eviction pressure.

        Called with ``_lifecycle`` held; ``eviction_pressure`` takes the cache
        locks (higher rank) internally and costs a few dict operations.
        """
        threshold = self.engine.config.shed_pressure_threshold
        if threshold is None:
            return False
        return self.engine.recache.eviction_pressure() >= threshold

    def serve_all(
        self,
        queries: Sequence[Query],
        *,
        timeout: float | None = None,
    ) -> list[QueryReport]:
        """Submit a batch and wait for every report (submission order).

        ``timeout`` bounds the wait on *each* future (seconds); the server's
        containment guarantees every future resolves, so a timeout firing
        indicates a stuck worker, not normal backpressure.
        """
        futures = self.submit_batch(queries)
        return [future.result(timeout) for future in futures]

    def _serve_group(self, group: Sequence[_Execution]) -> None:
        """Worker entry point: run one cache-affine group through the session.

        :meth:`QueryEngine.execute_group` executes the queries back to back on
        this worker; the callbacks resolve each execution's futures the moment
        its result (or failure) is known, so clients never wait for the whole
        group.  ``execute_group`` preserves query order, which is what lets
        the callbacks track the current execution with a plain index.  A
        failure *outside* the per-query handling (argument validation, a
        raising callback, a broken session) must still resolve every
        remaining future — clients block on them, and their pending slots
        hold backpressure capacity — hence the catch-all that fails the
        executions the callbacks never reached.  That same catch-all contains
        injected worker crashes (``server.worker`` fault scope): a crash at
        worker entry fails every future in the group with the typed
        :class:`~repro.core.errors.WorkerCrashed` instead of stranding them.

        Executions whose query spent its whole deadline *queued* fail with
        :class:`DeadlineExceeded` up front instead of executing: the engine
        measures its deadline from execution start, so queue residency is
        this layer's responsibility.
        """
        live = []
        now = time.perf_counter()
        for execution in group:
            deadline = execution.query.deadline or self.engine.config.default_deadline
            enqueued_at = execution.submissions[0].enqueued_at
            if deadline is not None and now >= enqueued_at + deadline:
                self._fail_execution(
                    execution,
                    DeadlineExceeded(
                        f"query spent its deadline queued "
                        f"(label={execution.query.label!r})"
                    ),
                )
            else:
                live.append(execution)
        if not live:
            return

        position = [0]
        execution_started = [time.perf_counter()]

        def resolve(query: Query, report: QueryReport) -> None:
            execution = live[position[0]]
            position[0] += 1
            self._resolve_execution(execution, report, execution_started[0])
            execution_started[0] = time.perf_counter()

        def fail(query: Query, exc: Exception) -> None:
            execution = live[position[0]]
            position[0] += 1
            self._fail_execution(execution, exc)
            execution_started[0] = time.perf_counter()

        try:
            injector = faults.injector_for("server.worker")
            if injector is not None:
                injector()  # raises WorkerCrashed: contained by the catch-all
            self.engine.execute_group(
                [execution.query for execution in live],
                on_report=resolve,
                on_error=fail,
            )
        except BaseException as exc:
            for execution in live[position[0]:]:
                self._fail_execution(execution, exc)
            raise

    def _fail_execution(self, execution: _Execution, exc: BaseException) -> None:
        """Resolve one execution's futures exceptionally and settle its slots.

        Guards ``done()`` because an execution that partially resolved before
        failing (e.g. the primary resolved, then a duplicate's conversion
        raised) reaches this path with some futures already terminal.
        """
        try:
            for submission in execution.submissions:
                if not submission.future.done():
                    submission.future.set_exception(exc)
        finally:
            self._settle(len(execution.submissions), 0)

    def _resolve_execution(
        self, execution: _Execution, report: QueryReport, started: float
    ) -> None:
        primary = execution.submissions[0]
        coalesced = 0
        settled = False
        # Every submission MUST leave this method with its future resolved and
        # its pending slot returned — a raising response_hook (or any delivery
        # bug) would otherwise hang clients and leak backpressure capacity.
        try:
            report.queue_wait_time = started - primary.enqueued_at
            report.queue_depth = primary.queue_depth
            if self.response_hook is not None:
                self.response_hook(report)
            resolved_at = time.perf_counter()
            # Cross-format conversion happens at most once, not once per
            # duplicate — N rows-format duplicates of a columnar execution
            # share one to_rows() materialization.
            converted = None
            copies: list[tuple[_Submission, QueryReport]] = []
            for submission in execution.submissions[1:]:
                results = report.results
                if submission.query.result_format != primary.query.result_format:
                    if converted is None:
                        converted = _convert_results(report.results)
                    results = converted
                copy = self._coalesced_report(report, submission, resolved_at, results)
                if self.response_hook is not None:
                    self.response_hook(copy)
                copies.append((submission, copy))
                coalesced += 1
            # Settle BEFORE resolving: a client that observes its future
            # resolved must also observe the pending slots returned and
            # ``coalesced_served`` updated (set_result cannot raise here —
            # these futures are created unresolved and resolved only by us).
            self._settle(len(execution.submissions), coalesced)
            settled = True
            primary.future.set_result(report)
            for submission, copy in copies:
                submission.future.set_result(copy)
        except BaseException as exc:
            for submission in execution.submissions:
                if not submission.future.done():
                    submission.future.set_exception(exc)
        finally:
            if not settled:
                self._settle(len(execution.submissions), 0)

    @staticmethod
    def _coalesced_report(
        report: QueryReport,
        submission: _Submission,
        resolved_at: float,
        results: "list[dict] | ColumnarResult",
    ) -> QueryReport:
        """The report of a request served from another request's execution.

        Carries the shared result set — already converted by the caller when
        the submission's query asks for the other representation than the
        primary's — but none of the execution counters: the engine did no
        work for this request, so a merged serving window still reflects
        actual cache traffic, with ``coalesced`` counting the piggybacked
        requests.  Each duplicate gets its own report object; only the
        result data is shared.

        The duplicate's wait goes into ``coalesced_wait_time``, NOT
        ``queue_wait_time``: only the primary waited for an execution slot,
        and summing N full waits per single execution made merged queue wait
        dwarf wall time in the batched submission bench.  Both instants come
        from the coordinator's clock (worker processes never produce
        timestamps), so the difference is meaningful.
        """
        copy = QueryReport(label=report.label)
        copy.results = results
        copy.rows_returned = report.rows_returned
        copy.coalesced_wait_time = resolved_at - submission.enqueued_at
        copy.queue_depth = submission.queue_depth
        copy.coalesced = 1
        return copy

    def _settle(self, count: int, coalesced: int) -> None:
        with self._backpressure:
            self._pending -= count
            self.coalesced_served += coalesced
            self._backpressure.notify_all()

    def execute(self, query: Query, timeout: float | None = None) -> QueryReport:
        """Execute one query through the pool and wait for its report."""
        return self.submit(query).result(timeout)

    def execute_many(
        self, queries: Sequence[Query], timeout: float | None = None
    ) -> list[QueryReport]:
        """Execute queries as independent requests; reports in submission order.

        Unlike :meth:`serve_all` this performs no coalescing or grouping —
        every query is its own pool task.  ``timeout`` bounds the wait on
        each future.
        """
        futures = [self.submit(query) for query in queries]
        return [future.result(timeout) for future in futures]

    def aggregate(
        self, queries: Sequence[Query], label: str = "aggregate", timeout: float | None = None
    ) -> QueryReport:
        """Execute queries concurrently and merge their reports."""
        return merge_reports(self.execute_many(queries, timeout=timeout), label=label)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def cache_stats(self):
        return self.engine.cache_stats

    def cached_bytes(self) -> int:
        return self.engine.cached_bytes()

    @property
    def queue_depth(self) -> int:
        """Queries currently pending (queued or executing)."""
        return self._pending  # unguarded-read: GIL-atomic int; monitoring path

    def shutdown(self, wait: bool = True) -> None:
        with self._backpressure:
            self._closed = True
            # Wake submitters blocked on backpressure so they observe the
            # closed flag and raise instead of waiting forever.
            self._backpressure.notify_all()
        self._pool.shutdown(wait=wait)
        # The engine's process-pool resources belong to this server's
        # lifecycle too: terminate/join worker processes and unlink every
        # live shm segment even on wait=False, so no shutdown path can
        # leave /dev/shm residue or zombie children behind.
        self.engine.close_workers(wait=wait)

    def __enter__(self) -> "EngineServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()
