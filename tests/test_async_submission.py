"""Tests for the server's batched submission API and its serving-tier counters.

Covers: ``submit_batch``/``serve_all`` ordering and result parity, duplicate
coalescing on ``(signature, result_format, deadline)``, backpressure blocking,
the ``queue_wait_time``/``queue_depth``/``coalesced_wait_time`` counters, and
the submit/shutdown race.
"""

from __future__ import annotations

import dataclasses
import threading
import time

import pytest

from repro import (
    AggregateSpec,
    ColumnarResult,
    EngineServer,
    FieldRef,
    Query,
    QueryEngine,
    QueryReport,
    RangePredicate,
    ReCacheConfig,
)
from repro.core.errors import DeadlineExceeded

from tests.conftest import build_engine


def _flat_query(index: int, low: float, width: float = 30.0) -> Query:
    return Query.select_aggregate(
        "flat",
        RangePredicate("value", low, low + width),
        [AggregateSpec("sum", FieldRef("score")), AggregateSpec("count", FieldRef("id"))],
        label=f"batch-{index}",
    )


@pytest.fixture()
def server_engine(dataset_dir):
    config = ReCacheConfig(max_workers=4, admission_sample_records=50)
    return build_engine(dataset_dir, config)


# ---------------------------------------------------------------------------
# submit_batch: ordering, parity, coalescing
# ---------------------------------------------------------------------------
def test_serve_all_preserves_order_and_matches_sequential_results(server_engine):
    queries = [_flat_query(i, float((i * 17) % 120)) for i in range(10)]
    with EngineServer(server_engine) as server:
        reports = server.serve_all(queries)
    assert [report.label for report in reports] == [query.label for query in queries]
    sequential = QueryEngine(ReCacheConfig(caching_enabled=False))
    sequential.catalog = server_engine.catalog
    for query, report in zip(queries, reports):
        assert report.results == sequential.execute(query).results, query.label


def test_submit_batch_coalesces_identical_queries(server_engine):
    hot = _flat_query(0, 10.0)
    queries = [hot, _flat_query(1, 50.0), hot, hot, _flat_query(2, 80.0)]
    with EngineServer(server_engine) as server:
        reports = server.serve_all(queries)
        assert server.coalesced_served == 2
    # Only the three distinct queries reached the engine.
    assert server_engine.query_count == 3
    assert [r.coalesced for r in reports] == [0, 0, 1, 1, 0]
    # Coalesced duplicates still deliver the shared result rows...
    assert reports[2].results == reports[0].results
    assert reports[2].rows_returned == reports[0].rows_returned
    # ...but carry no execution counters of their own.
    assert reports[2].exact_hits + reports[2].subsumption_hits + reports[2].misses == 0


def test_one_batch_serves_a_query_in_both_result_formats(server_engine):
    """The same query as ``"rows"`` and as ``"columnar"`` runs as two
    executions (the format is part of the coalescing key), so each future
    resolves in its own query's representation, whichever came first."""
    rows_query = _flat_query(0, 10.0)
    columnar_query = dataclasses.replace(rows_query, result_format="columnar")
    with EngineServer(server_engine) as server:
        rows_first = server.serve_all([rows_query, columnar_query])
        columnar_first = server.serve_all([columnar_query, rows_query])
    # Asserted after shutdown so the workers' settle accounting has run.
    assert server.coalesced_served == 0 and server_engine.query_count == 4
    assert [report.coalesced for report in rows_first + columnar_first] == [0, 0, 0, 0]
    for rows, columnar in (rows_first, reversed(columnar_first)):
        assert isinstance(rows.results, list)
        assert isinstance(columnar.results, ColumnarResult)
        assert columnar.results.to_rows() == rows.results
        assert columnar.rows_returned == rows.rows_returned == 1
    with pytest.raises(ValueError, match="unknown result format"):
        dataclasses.replace(rows_query, result_format="arrow")


@pytest.mark.parametrize("tight_first", [True, False])
def test_coalescing_never_shares_a_deadline(server_engine, tight_first):
    """Regression: identical queries coalesced across deadlines, so the whole
    execution ran under the first submission's — a duplicate that set none
    failed with the primary's ``DeadlineExceeded``, and a duplicate with a
    tight one behind a primary with none was never bounded."""
    relaxed = _flat_query(0, 10.0)
    tight = dataclasses.replace(relaxed, deadline=1e-9)
    batch = [tight, relaxed] if tight_first else [relaxed, tight]
    with EngineServer(server_engine) as server:
        futures = server.submit_batch(batch)
        tight_future, relaxed_future = futures if tight_first else reversed(futures)
        with pytest.raises(DeadlineExceeded):
            tight_future.result(timeout=30)
        report = relaxed_future.result(timeout=30)
    assert report.coalesced == 0 and report.rows_returned == 1
    assert report.results == server_engine.execute(relaxed).results


def test_submit_batch_empty_is_a_noop(server_engine):
    with EngineServer(server_engine) as server:
        assert server.submit_batch([]) == []
        assert server.queue_depth == 0


def test_coalesced_duplicates_get_their_own_response_delivery(server_engine):
    """Each duplicate's future resolves with a report object of its own that
    shares the primary's result object (same format, so no conversion)."""
    hot = _flat_query(0, 10.0)
    with EngineServer(server_engine) as server:
        reports = server.serve_all([hot, hot, hot])
    assert len({id(report) for report in reports}) == 3
    assert [report.label for report in reports] == ["batch-0"] * 3
    assert all(report.results is reports[0].results for report in reports)


def test_queue_counters_populated(server_engine):
    queries = [_flat_query(i, float(i * 5)) for i in range(6)]
    with EngineServer(server_engine) as server:
        reports = server.serve_all(queries)
        assert server.peak_queue_depth >= len(queries)
    assert all(report.queue_wait_time >= 0.0 for report in reports)
    # One batch is admitted atomically: every request saw the same backlog.
    assert {report.queue_depth for report in reports} == {0}


def test_coalesced_wait_accrues_separately_from_queue_wait(server_engine):
    """Coalesced duplicates must not inflate ``queue_wait_time``.

    Each duplicate used to report a full queue-to-resolve interval as queue
    wait, so a batch of N identical queries summed to N× the real wait — a
    3.59s aggregate against a 0.05s wall in the batched bench.  Duplicate
    waits now land in ``coalesced_wait_time``; ``queue_wait_time`` counts
    only submissions that actually occupied the queue.
    """
    hot = _flat_query(0, 10.0)
    started = time.perf_counter()
    with EngineServer(server_engine) as server:
        reports = server.serve_all([hot] * 8)
    wall = time.perf_counter() - started
    duplicates = [r for r in reports if r.coalesced]
    primaries = [r for r in reports if not r.coalesced]
    assert len(duplicates) == 7
    assert all(r.queue_wait_time == 0.0 for r in duplicates)
    assert all(0.0 <= r.coalesced_wait_time <= wall for r in duplicates)
    assert all(r.coalesced_wait_time == 0.0 for r in primaries)
    # The summed queue wait can no longer exceed the real wall window.
    assert sum(r.queue_wait_time for r in reports) <= wall + 1e-6


# ---------------------------------------------------------------------------
# Backpressure
# ---------------------------------------------------------------------------
def test_backpressure_blocks_submit_until_queue_drains(server_engine):
    release = threading.Event()
    original_execute = server_engine.execute

    def slow_execute(query, **kwargs):
        release.wait(timeout=10)
        return original_execute(query, **kwargs)

    server_engine.execute = slow_execute
    server = EngineServer(server_engine, max_workers=1, max_pending=1)
    try:
        first = server.submit(_flat_query(0, 10.0))  # occupies the queue
        blocked_result: list[QueryReport] = []

        def blocked_submit() -> None:
            blocked_result.append(server.execute(_flat_query(1, 50.0)))

        thread = threading.Thread(target=blocked_submit)
        thread.start()
        time.sleep(0.05)
        assert thread.is_alive(), "second submit must block at max_pending=1"
        assert not blocked_result
        release.set()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert first.result(timeout=10).label == "batch-0"
        assert blocked_result[0].label == "batch-1"
        assert blocked_result[0].queue_wait_time > 0.0
    finally:
        release.set()
        server.shutdown()


# ---------------------------------------------------------------------------
# Submit/shutdown race (satellite): deterministic interleaving
# ---------------------------------------------------------------------------
def test_submit_shutdown_race_is_consistent(server_engine):
    """A submit racing shutdown either executes fully or raises — never hangs.

    The worker is parked on an event so the interleaving is deterministic:
    shutdown(wait=True) is started while a query is in flight, the main
    thread waits until the closed flag is set, verifies that new submissions
    are rejected, then releases the worker and checks the in-flight future
    still resolves.
    """
    release = threading.Event()
    started = threading.Event()
    original_execute = server_engine.execute

    def parked_execute(query, **kwargs):
        started.set()
        release.wait(timeout=10)
        return original_execute(query, **kwargs)

    server_engine.execute = parked_execute
    server = EngineServer(server_engine, max_workers=1)
    in_flight = server.submit(_flat_query(0, 10.0))
    assert started.wait(timeout=10)

    shutdown_thread = threading.Thread(target=server.shutdown)  # wait=True
    shutdown_thread.start()
    deadline = time.perf_counter() + 10
    while not server._closed and time.perf_counter() < deadline:
        time.sleep(0.001)
    assert server._closed

    with pytest.raises(RuntimeError):
        server.submit(_flat_query(1, 50.0))

    release.set()
    shutdown_thread.join(timeout=10)
    assert not shutdown_thread.is_alive()
    assert in_flight.result(timeout=10).label == "batch-0"
    assert server.queue_depth == 0


def test_shutdown_wakes_submitter_blocked_on_backpressure(server_engine):
    release = threading.Event()
    started = threading.Event()
    original_execute = server_engine.execute

    def parked_execute(query, **kwargs):
        started.set()
        release.wait(timeout=10)
        return original_execute(query, **kwargs)

    server_engine.execute = parked_execute
    server = EngineServer(server_engine, max_workers=1, max_pending=1)
    server.submit(_flat_query(0, 10.0))
    assert started.wait(timeout=10)
    outcome: list[BaseException] = []

    def blocked_submit() -> None:
        try:
            server.submit(_flat_query(1, 50.0))
        except RuntimeError as exc:
            outcome.append(exc)

    thread = threading.Thread(target=blocked_submit)
    thread.start()
    time.sleep(0.05)
    assert thread.is_alive(), "submit must be blocked on backpressure"
    shutdown_thread = threading.Thread(target=server.shutdown)
    shutdown_thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive(), "shutdown must wake the blocked submitter"
    assert len(outcome) == 1  # it observed the closed server and raised
    release.set()
    shutdown_thread.join(timeout=10)
