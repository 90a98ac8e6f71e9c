"""Tests for the async batched submission API and its serving-tier counters.

Covers: ``submit_batch``/``serve_all`` ordering and result parity, duplicate
coalescing, source/predicate-overlap grouping, backpressure blocking, the
``queue_wait_time``/``queue_depth`` counters, the generic ``merge_reports``
aggregation, the submit/shutdown race, and the batched multi-client driver.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from concurrent.futures import Future

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
    merge_reports,
)
from repro.core.errors import DeadlineExceeded
from repro.engine.server import _Submission, _coalesce, group_batch
from repro.workloads.runner import ConcurrentWorkloadRunner

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
    config = ReCacheConfig(shard_count=4, max_workers=4, admission_sample_records=50)
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
    """The same query as ``"rows"`` and as ``"columnar"`` coalesces to one
    execution (the format is not part of the signature) and each future
    resolves in its own query's representation, whichever came first."""
    rows_query = _flat_query(0, 10.0)
    columnar_query = dataclasses.replace(rows_query, result_format="columnar")
    with EngineServer(server_engine) as server:
        rows_first = server.serve_all([rows_query, columnar_query])
        columnar_first = server.serve_all([columnar_query, rows_query])
    # Asserted after shutdown so the workers' settle accounting has run.
    assert server.coalesced_served == 2 and server_engine.query_count == 2
    assert [report.coalesced for report in rows_first + columnar_first] == [0, 1, 0, 1]
    for rows, columnar in (rows_first, reversed(columnar_first)):
        assert isinstance(rows.results, list)
        assert isinstance(columnar.results, ColumnarResult)
        assert columnar.results.to_rows() == rows.results
        assert columnar.rows_returned == rows.rows_returned == 1
    # A coalesced copy is its own report with no execution counters of its own.
    copy = rows_first[1]
    assert copy is not rows_first[0]
    assert copy.exact_hits + copy.subsumption_hits + copy.misses == 0
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
    delivered: list[str] = []
    hot = _flat_query(0, 10.0)

    def hook(report: QueryReport) -> None:
        delivered.append(report.label)

    with EngineServer(server_engine, response_hook=hook) as server:
        server.serve_all([hot, hot, hot])
    assert delivered == ["batch-0"] * 3


def test_queue_counters_populated_and_merged(server_engine):
    queries = [_flat_query(i, float(i * 5)) for i in range(6)]
    with EngineServer(server_engine) as server:
        reports = server.serve_all(queries)
        assert server.peak_queue_depth >= len(queries)
    assert all(report.queue_wait_time >= 0.0 for report in reports)
    merged = merge_reports(reports, label="window")
    assert merged.queue_wait_time == pytest.approx(
        sum(r.queue_wait_time for r in reports)
    )
    assert merged.queue_depth == max(r.queue_depth for r in reports)


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
    merged = merge_reports(reports)
    # The aggregate queue wait can no longer exceed the real wall window.
    assert merged.queue_wait_time <= wall + 1e-6
    assert merged.coalesced_wait_time == pytest.approx(
        sum(r.coalesced_wait_time for r in duplicates)
    )


# ---------------------------------------------------------------------------
# merge_reports: every admission key survives (satellite)
# ---------------------------------------------------------------------------
def test_merge_reports_carries_all_admission_keys():
    first = QueryReport(exact_hits=1)
    first.admissions["eager"] = 2
    first.admissions["speculative"] = 3  # a key merge must NOT drop
    second = QueryReport(misses=1)
    second.admissions["lazy"] = 1
    second.admissions["speculative"] = 4
    second.queue_wait_time = 0.5
    second.queue_depth = 7
    second.coalesced = 2
    merged = merge_reports([first, second])
    assert merged.admissions == {"eager": 2, "lazy": 1, "speculative": 7}
    assert merged.queue_wait_time == pytest.approx(0.5)
    assert merged.queue_depth == 7
    assert merged.coalesced == 2


# ---------------------------------------------------------------------------
# Grouping: data source + predicate overlap, widest first
# ---------------------------------------------------------------------------
def _submissions(queries: list[Query]) -> list[_Submission]:
    return [_Submission(query, Future(), 0.0, 0) for query in queries]


def test_group_batch_clusters_overlapping_ranges_widest_first():
    wide = _flat_query(0, 10.0, width=80.0)  # 10..90
    narrow_a = _flat_query(1, 20.0, width=10.0)  # 20..30, inside wide
    narrow_b = _flat_query(2, 70.0, width=10.0)  # 70..80, inside wide
    disjoint = _flat_query(3, 200.0, width=5.0)  # 200..205, separate cluster
    executions = _coalesce(_submissions([narrow_a, wide, disjoint, narrow_b]))
    groups = group_batch(executions)
    assert len(groups) == 2
    overlap_group = next(g for g in groups if len(g) == 3)
    # Widest first: the subsuming query warms the cache for the narrow ones.
    assert overlap_group[0].query.label == "batch-0"
    assert {e.query.label for e in overlap_group[1:]} == {"batch-1", "batch-2"}
    lone_group = next(g for g in groups if len(g) == 1)
    assert lone_group[0].query.label == "batch-3"


def test_execute_group_widest_first_actually_warms_cache_for_narrow_members(dataset_dir):
    """The grouping promise, checked end to end on the engine itself.

    ``group_batch`` puts the widest predicate first; running the group through
    :meth:`QueryEngine.execute_group` must then turn every narrower member
    into a cache hit off the head query's admission — previously this was
    only exercised indirectly through ``submit_batch``.
    """
    config = ReCacheConfig(adaptive_admission=False, layout_selection=False)
    wide = _flat_query(0, 10.0, width=80.0)  # 10..90
    narrow_a = _flat_query(1, 20.0, width=10.0)  # inside wide
    narrow_b = _flat_query(2, 70.0, width=10.0)  # inside wide
    (group,) = group_batch(_coalesce(_submissions([narrow_a, narrow_b, wide])))
    ordered = [execution.query for execution in group]
    assert ordered[0].label == "batch-0", "group must lead with the widest query"

    engine = build_engine(dataset_dir, config)
    reports = engine.execute_group(ordered)
    assert reports[0].misses == 1 and reports[0].cache_hits == 0
    for report in reports[1:]:
        assert report.misses == 0, f"{report.label} re-scanned the raw file"
        assert report.cache_hits == 1, f"{report.label} was not served from cache"

    # Counterfactual: the submission order (narrowest first) admits per-narrow
    # caches that cannot serve the wide query, so it pays extra raw scans —
    # the widest-first reordering is what removes them.
    unordered_engine = build_engine(dataset_dir, config)
    unordered_reports = unordered_engine.execute_group([narrow_a, narrow_b, wide])
    assert sum(report.misses for report in unordered_reports) > 1
    assert sum(r.misses for r in reports) < sum(r.misses for r in unordered_reports)


def test_group_batch_separates_different_sources():
    flat = _flat_query(0, 10.0)
    orders = Query.select_aggregate(
        "orders", None, [AggregateSpec("count", FieldRef("order_id"))], label="orders-q"
    )
    groups = group_batch(_coalesce(_submissions([flat, orders])))
    assert len(groups) == 2


def test_raising_response_hook_resolves_futures_and_frees_capacity(server_engine):
    """A delivery-hook failure must neither hang clients nor leak queue slots."""

    def failing_hook(report: QueryReport) -> None:
        raise ValueError("delivery failed")

    server = EngineServer(server_engine, max_workers=2, response_hook=failing_hook)
    try:
        hot = _flat_query(0, 10.0)
        futures = server.submit_batch([hot, hot, _flat_query(1, 50.0)])
        for future in futures:
            with pytest.raises(ValueError):
                future.result(timeout=10)
        deadline = time.perf_counter() + 10
        while server.queue_depth and time.perf_counter() < deadline:
            time.sleep(0.001)
        assert server.queue_depth == 0, "pending count leaked"
        # The server stays usable once delivery works again.
        server.response_hook = None
        assert server.execute(_flat_query(2, 80.0)).label == "batch-2"
    finally:
        server.shutdown()


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


# ---------------------------------------------------------------------------
# Batched multi-client driver
# ---------------------------------------------------------------------------
def test_run_batched_draws_the_same_streams_as_run(dataset_dir):
    pool = [_flat_query(i, float((i * 17) % 120)) for i in range(12)]
    sequences: list[list[list[str]]] = []
    for batched in (False, True):
        engine = build_engine(dataset_dir, ReCacheConfig(shard_count=4))
        with EngineServer(engine, max_workers=4) as server:
            runner = ConcurrentWorkloadRunner(server, clients=3, seed=99)
            if batched:
                result = runner.run_batched(pool, queries_per_client=8, batch_size=4, zipf_s=1.2)
            else:
                result = runner.run(pool, queries_per_client=8, zipf_s=1.2)
        assert result.total_queries == 24
        sequences.append(
            [[row["label"] for row in client.per_query] for client in result.per_client]
        )
    assert sequences[0] == sequences[1], "both modes must draw identical query streams"


def test_run_batched_coalesces_hot_draws(dataset_dir):
    engine = build_engine(dataset_dir, ReCacheConfig(shard_count=2))
    pool = [_flat_query(i, float((i * 17) % 120)) for i in range(6)]
    with EngineServer(engine, max_workers=2) as server:
        runner = ConcurrentWorkloadRunner(server, clients=2, seed=5)
        result = runner.run_batched(pool, queries_per_client=30, batch_size=10, zipf_s=1.5)
    assert result.total_queries == 60
    assert result.aggregate.coalesced > 0, "zipfian batches must contain duplicates"
    assert engine.query_count == 60 - result.aggregate.coalesced
    summary = result.summary()
    assert summary["coalesced"] == result.aggregate.coalesced
