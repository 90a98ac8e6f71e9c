"""The high-level query engine session tying everything together.

:class:`QueryEngine` is the public entry point of the library: register raw CSV
and JSON files, then call :meth:`QueryEngine.execute` with declarative
:class:`~repro.engine.query.Query` objects.  Each execution goes through the
cache-aware optimizer and the instrumented executor, and returns a
:class:`~repro.engine.executor.QueryReport` carrying the results and the timing
breakdown the benchmarks consume.
"""

from __future__ import annotations

import random
import threading
import time
from pathlib import Path

from repro.core.cache_manager import ReCache
from repro.core.circuit_breaker import SourceCircuitBreaker
from repro.core.config import ReCacheConfig, validate_execution_mode
from repro.core.errors import DeadlineExceeded, TransientScanError
from repro.core.shm_registry import ShmRegistry
from repro.faults import runtime as faults
from repro.engine.executor import (
    ExecutionContext,
    QueryReport,
    execute_plan,
    try_offload_cache_scan,
)
from repro.engine.procpool import ProcessExecutionPool
from repro.engine.optimizer import PlanInfo, build_plan
from repro.engine.query import Query
from repro.engine.types import RecordType
from repro.formats.datafile import DataSource, DataSourceCatalog

#: base of the jittered exponential backoff between transient-scan retries,
#: in seconds (attempt ``n`` sleeps ``SCAN_RETRY_BACKOFF * 2^n * uniform(0.5, 1)``)
SCAN_RETRY_BACKOFF = 0.005


class QueryEngine:
    """Cache-accelerated query engine over raw heterogeneous data files.

    ``execute`` may be called from many threads at once (that is what
    :class:`~repro.engine.server.EngineServer` does): each execution gets its
    own :class:`~repro.engine.executor.ExecutionContext` and report, and the
    shared cache manager synchronizes internally.  Register all data sources
    before the first concurrent query — registration is not synchronized.
    """

    def __init__(self, config: ReCacheConfig | None = None) -> None:
        self.config = config or ReCacheConfig()
        self.recache = ReCache(self.config)
        self.catalog = DataSourceCatalog()
        #: routes repeatedly faulting sources around the cache (see execute)
        self.breaker = SourceCircuitBreaker(
            failure_threshold=self.config.breaker_failure_threshold,
            cooldown=self.config.breaker_cooldown,
        )
        if self.config.faults:
            # Config-driven fault plans are process-global by design: the
            # injection points live in the shared format plugins and layouts.
            faults.install_spec(self.config.faults, seed=self.config.seed)
        self.query_count = 0
        self._count_lock = threading.Lock()
        #: lazily created process-pool execution resources (see
        #: :meth:`_process_resources`); guarded by ``_proc_lock`` so the
        #: first concurrent offload builds exactly one pool + registry
        self._proc_lock = threading.Lock()
        self._procpool = None
        self._shm_registry = None

    # ------------------------------------------------------------------
    # Data source registration
    # ------------------------------------------------------------------
    def register_csv(
        self, name: str, path: str | Path, schema: RecordType, delimiter: str = "|"
    ) -> DataSource:
        """Register a CSV file as a queryable data source."""
        return self.catalog.register_csv(name, path, schema, delimiter)

    def register_json(self, name: str, path: str | Path, schema: RecordType) -> DataSource:
        """Register a line-delimited JSON file as a queryable data source."""
        return self.catalog.register_json(name, path, schema)

    def register(self, source: DataSource) -> DataSource:
        return self.catalog.register(source)

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def plan(self, query: Query) -> PlanInfo:
        """Build (but do not execute) the cache-aware plan for a query."""
        return build_plan(query, self.catalog, self.recache)

    def execute(
        self,
        query: Query,
        *,
        execution_mode: str | None = None,
        submitted_at: float | None = None,
    ) -> QueryReport:
        """Execute a query and return its results plus execution report.

        ``report.results`` is a list of row dictionaries, or — when the query
        says ``result_format="columnar"`` — the
        :class:`~repro.engine.types.ColumnarResult` those rows would be built
        from.  Execution, report counters and cache behaviour are the same
        either way.

        Failure containment: the query's deadline (``query.deadline`` falling
        back to ``config.default_deadline``) counts from ``submitted_at`` — the
        ``time.perf_counter()`` instant a serving layer queued the query;
        default: now — and spans all attempts.  Each attempt checks it before
        touching any cache state, so a query whose deadline ran out while
        queued fails without executing.  A
        :class:`~repro.core.errors.TransientScanError` is retried up to
        ``config.scan_retry_limit`` times with jittered exponential backoff
        (admission happens only at scan completion, so a failed attempt
        leaves no cache state behind); each failed attempt feeds the
        per-source circuit breaker, and queries over a tripped source are
        planned as plain raw scans until its cooldown elapses.
        """
        config = self.config
        if execution_mode is None:
            execution_mode = query.execution_mode or config.execution_mode
        validate_execution_mode(execution_mode)
        deadline = query.deadline if query.deadline is not None else config.default_deadline
        if submitted_at is None:
            submitted_at = time.perf_counter()
        deadline_at = submitted_at + deadline if deadline is not None else None
        retry_limit = max(0, config.scan_retry_limit)
        attempt = 0
        while True:
            try:
                report = self._execute_attempt(query, config, deadline_at, execution_mode)
            except TransientScanError as exc:
                for table in query.tables:
                    self.breaker.record_failure(table.source)
                if attempt >= retry_limit:
                    raise
                if deadline_at is not None and time.perf_counter() >= deadline_at:
                    raise DeadlineExceeded(
                        f"deadline expired retrying transient scan fault "
                        f"(label={query.label!r}, attempts={attempt + 1})"
                    ) from exc
                # Jittered exponential backoff; the jitter needs no
                # determinism (fault schedules are seeded independently).
                backoff = SCAN_RETRY_BACKOFF * (2**attempt)
                time.sleep(backoff * (0.5 + random.random() / 2))
                attempt += 1
                continue
            report.retries = attempt
            for table in query.tables:
                self.breaker.record_success(table.source)
            with self._count_lock:
                self.query_count += 1
            return report

    def _execute_attempt(
        self,
        query: Query,
        config: ReCacheConfig,
        deadline_at: float | None,
        execution_mode: str = "threads",
    ) -> QueryReport:
        """One planning + execution pass of :meth:`execute` (no retry logic)."""
        if deadline_at is not None and time.perf_counter() >= deadline_at:
            raise DeadlineExceeded(
                f"query deadline expired before execution started (label={query.label!r})"
            )
        report = QueryReport(label=query.label)
        sequence = self.recache.begin_query()
        started = time.perf_counter()

        plan_info = build_plan(query, self.catalog, self.recache, breaker=self.breaker)
        ctx = ExecutionContext(
            catalog=self.catalog,
            recache=self.recache,
            config=config,
            report=report,
            sequence=sequence,
            query_started=started,
            deadline_at=deadline_at,
        )
        results = None
        if execution_mode == "processes" and query.result_format == "rows":
            pool, registry = self._process_resources()
            results = try_offload_cache_scan(plan_info.plan, ctx, pool, registry)
        if results is None:
            # Thread path — also the fallback for every plan the pool cannot
            # serve (misses, joins, nested data, columnar exits, deadlines).
            # The one place the caller's representation is chosen.
            result = execute_plan(plan_info.plan, ctx)
            results = result if query.result_format == "columnar" else result.to_rows()

        report.results = results
        report.rows_returned = len(results)
        report.total_time = time.perf_counter() - started
        return report

    def _process_resources(self):
        """The engine's process pool + shm registry, built on first use."""
        with self._proc_lock:
            if self._procpool is None:
                registry = ShmRegistry()
                self.recache.attach_shm_registry(registry)
                self._shm_registry = registry
                self._procpool = ProcessExecutionPool(self.config.max_workers)
            return self._procpool, self._shm_registry

    def close_workers(self, wait: bool = True) -> None:
        """Tear down process-pool execution resources (idempotent).

        Joins (or, with ``wait=False``, terminates) every worker process and
        unlinks every live shared-memory segment.  Safe on engines that
        never offloaded; :meth:`~repro.engine.server.EngineServer.shutdown`
        calls this so no server shutdown can strand segments or children.
        """
        with self._proc_lock:
            pool, registry = self._procpool, self._shm_registry
            self._procpool = None
            self._shm_registry = None
        if pool is not None:
            pool.shutdown(wait=wait)
        if registry is not None:
            registry.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def cache_stats(self):
        """Aggregate cache-manager counters (hits, misses, evictions, ...)."""
        return self.recache.stats

    def cache_entries(self):
        return self.recache.entries()

    def cached_bytes(self) -> int:
        return self.recache.total_bytes

    def explain(self, query: Query) -> str:
        """Return a human-readable plan for ``query`` without executing it."""
        return self.plan(query).plan.pretty()
