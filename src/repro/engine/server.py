"""The concurrent serving layer: a thread-pool front-end for one shared cache.

:class:`EngineServer` wraps a :class:`~repro.engine.session.QueryEngine` with a
``ThreadPoolExecutor`` so many clients can issue queries against one shared
ReCache.  Each query executes with its own
:class:`~repro.engine.executor.ExecutionContext` and
:class:`~repro.engine.executor.QueryReport` — nothing per-query is shared
between threads — while lookups, admissions and evictions synchronize on the
cache manager's one lock (see :mod:`repro.core.cache_manager`).

:meth:`EngineServer.submit_batch` is the one submission path
(:meth:`~EngineServer.submit`, :meth:`~EngineServer.execute` and
:meth:`~EngineServer.serve_all` wrap it).  A batch is *coalesced*: queries
with the same ``(signature, result_format, deadline)`` execute once, and the
duplicates' futures resolve with a lightweight copy marked ``coalesced=1``
that carries the primary's result object.  Each execution is one pool task,
and its futures resolve the moment it finishes.

Backpressure: the server admits at most ``max_pending`` queries into its
queue; further submissions block until workers drain the backlog (a batch is
admitted atomically once the depth falls below the bound).  Every report
carries ``queue_wait_time`` (blocking plus queue residency) and
``queue_depth`` (the backlog observed at enqueue).

Deadlines count from submission: the server hands each execution's enqueue
instant to :meth:`QueryEngine.execute`, which fails a query whose deadline
ran out in the queue before it touches any cache state.
"""

from __future__ import annotations

# recheck-lint: check-futures — every path that creates a per-query future
# must reach set_result/set_exception, including shutdown/exception paths.

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

from repro.engine.executor import QueryReport
from repro.engine.query import Query
from repro.engine.session import QueryEngine
from repro.faults import runtime as faults


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

    The first submission of each distinct (signature, result format,
    deadline) becomes the primary (its report is the real execution report);
    later duplicates ride along and resolve with a coalesced copy.  The
    format is part of the key so every duplicate can take the primary's
    result object as it is; the deadline is, because the execution runs
    under the primary's: a duplicate must neither fail on a deadline it never
    set nor escape its own.
    """
    by_key: dict[tuple[str, str, float | None], _Execution] = {}
    executions: list[_Execution] = []
    for submission in submissions:
        query = submission.query
        key = (query.signature(), query.result_format, query.deadline)
        execution = by_key.get(key)
        if execution is None:
            execution = _Execution(query=query)
            by_key[key] = execution
            executions.append(execution)
        execution.submissions.append(submission)
    return executions


class EngineServer:
    """Serves queries from many clients against one shared query engine.

    Usable as a context manager; otherwise call :meth:`shutdown` when done.
    Register every data source on the engine before the first query is
    submitted — source registration is not synchronized against in-flight
    queries.
    """

    #: Lock discipline, machine-checked by ``python -m tools.recheck_lint.lint src``.
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
        engine: QueryEngine,
        *,
        max_workers: int | None = None,
        max_pending: int = 256,
    ) -> None:
        self.engine = engine
        self.max_workers = max_workers if max_workers is not None else engine.config.max_workers
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        #: backpressure bound: submissions block while this many queries are
        #: pending (queued or executing)
        self.max_pending = max_pending
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
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
    # Serving
    # ------------------------------------------------------------------
    def submit(self, query: Query) -> "Future[QueryReport]":
        """Queue one query for execution; returns a future for its report.

        Blocks while the pending queue is at ``max_pending``.
        """
        return self.submit_batch([query])[0]

    def submit_batch(self, queries: Sequence[Query]) -> "list[Future[QueryReport]]":
        """Queue a batch of queries; returns one future per query, in order.

        The batch is coalesced before it reaches the worker pool (see the
        module docstring); futures resolve individually as their executions
        complete.
        """
        queries = list(queries)
        if not queries:
            return []
        enqueued_at = time.perf_counter()
        with self._backpressure:
            if self._closed:
                raise RuntimeError("EngineServer is shut down")
            while self._pending >= self.max_pending:
                self._backpressure.wait()
                if self._closed:
                    raise RuntimeError("EngineServer is shut down")
            depth = self._pending
            self._pending += len(queries)
            if self._pending > self.peak_queue_depth:
                self.peak_queue_depth = self._pending
            submissions: list[_Submission] = []
            executions: list[_Execution] = []
            submitted = 0
            try:
                submissions = [
                    _Submission(query, Future(), enqueued_at, depth) for query in queries
                ]
                executions = _coalesce(submissions)
                while submitted < len(executions):
                    # Submitted under the lifecycle lock: a concurrent shutdown
                    # cannot close the pool between the ``_closed`` check above
                    # and this enqueue.
                    self._pool.submit(self._serve, executions[submitted])
                    submitted += 1
            except BaseException as exc:
                # Roll back whatever never reached the pool: resolve its
                # futures exceptionally and return its pending slots.  Without
                # this, a failing enqueue would leak backpressure capacity
                # forever and leave clients blocked on futures that never
                # resolve.  Executions already in flight settle themselves.
                stranded = [
                    submission
                    for execution in executions[submitted:]
                    for submission in execution.submissions
                ]
                if not executions:
                    stranded = submissions
                for submission in stranded:
                    submission.future.set_exception(exc)
                self._pending -= len(queries) - sum(
                    len(execution.submissions) for execution in executions[:submitted]
                )
                self._backpressure.notify_all()
                raise
        return [submission.future for submission in submissions]

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

    def execute(self, query: Query, timeout: float | None = None) -> QueryReport:
        """Execute one query through the pool and wait for its report."""
        return self.submit(query).result(timeout)

    def _serve(self, execution: _Execution) -> None:
        """Worker entry point: run one execution and resolve its futures.

        The primary's ``Query`` object goes to :meth:`QueryEngine.execute`
        unchanged, together with its enqueue instant, so the engine counts
        the deadline from submission (and fails a query that spent it queued
        before touching the cache).  Any failure — the engine's, or an
        injected crash at worker entry (``server.worker`` fault scope, typed
        :class:`~repro.core.errors.WorkerCrashed`) — fails every future of
        the execution, coalesced duplicates included, and returns their
        pending slots before re-raising into the pool (which swallows it).
        """
        primary, duplicates = execution.submissions[0], execution.submissions[1:]
        # Bound to a local so the call below can name its one target for the
        # call graph; ``self.engine.execute`` would resolve to every ``execute``.
        execute = self.engine.execute
        try:
            injector = faults.injector_for("server.worker")
            if injector is not None:
                injector()  # raises WorkerCrashed: contained below
            started = time.perf_counter()
            report = execute(  # dynamic-call: QueryEngine.execute
                execution.query, submitted_at=primary.enqueued_at
            )
            resolved_at = time.perf_counter()
            copies = [
                self._coalesced_report(report, submission, resolved_at)
                for submission in duplicates
            ]
        except BaseException as exc:
            self._fail_execution(execution, exc)
            raise
        report.queue_wait_time = started - primary.enqueued_at
        report.queue_depth = primary.queue_depth
        self._resolve_execution(execution, [report, *copies])

    def _fail_execution(self, execution: _Execution, exc: BaseException) -> None:
        """Resolve one execution's futures exceptionally and settle its slots."""
        try:
            for submission in execution.submissions:
                if not submission.future.done():  # a client may have cancelled it
                    submission.future.set_exception(exc)
        finally:
            self._settle(len(execution.submissions), 0)

    def _resolve_execution(self, execution: _Execution, reports: list[QueryReport]) -> None:
        """Resolve one execution's futures, one report each, and settle its slots.

        Settles BEFORE resolving: a client that observes its future resolved
        must also observe the pending slots returned and ``coalesced_served``
        updated.
        """
        self._settle(len(execution.submissions), len(reports) - 1)
        for submission, report in zip(execution.submissions, reports):
            if not submission.future.done():  # a client may have cancelled it
                submission.future.set_result(report)

    @staticmethod
    def _coalesced_report(
        report: QueryReport, submission: _Submission, resolved_at: float
    ) -> QueryReport:
        """The report of a request served from another request's execution.

        Carries the primary's result object unchanged (the coalescing key
        includes the result format) but none of the execution counters: the
        engine did no work for this request, so summed reports still reflect
        actual cache traffic, with ``coalesced`` counting the piggybacked
        requests.  Each duplicate gets its own report object; only the result
        data is shared.

        The duplicate's wait goes into ``coalesced_wait_time``, NOT
        ``queue_wait_time``: only the primary waited for an execution slot, so
        summing N full waits per single execution would overstate queue wait
        N-fold.
        """
        copy = QueryReport(label=report.label)
        copy.results = report.results
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

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
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
