"""Tests for the EngineServer serving layer and the multi-client driver."""

from __future__ import annotations

import pytest

from repro import EngineServer, Query, QueryEngine, QueryReport, ReCacheConfig, merge_reports
from repro.engine.expressions import AggregateSpec, FieldRef, RangePredicate
from repro.utils.rng import ZipfianSampler, make_rng
from repro.workloads.runner import ConcurrentWorkloadRunner

from tests.conftest import build_engine


def _flat_query(index: int, low: float, width: float = 30.0) -> Query:
    return Query.select_aggregate(
        "flat",
        RangePredicate("value", low, low + width),
        [AggregateSpec("sum", FieldRef("score")), AggregateSpec("count", FieldRef("id"))],
        label=f"serve-{index}",
    )


def _pool(n: int) -> list[Query]:
    return [_flat_query(i, float((i * 17) % 120)) for i in range(n)]


@pytest.fixture()
def server_engine(dataset_dir):
    config = ReCacheConfig(max_workers=4, admission_sample_records=50)
    return build_engine(dataset_dir, config)


def test_execute_many_preserves_submission_order(server_engine):
    queries = _pool(10)
    with EngineServer(server_engine) as server:
        reports = server.execute_many(queries, timeout=30.0)
    assert [report.label for report in reports] == [query.label for query in queries]
    assert server_engine.query_count == 10
    # Concurrent results must match a sequential re-execution of the same pool.
    sequential = QueryEngine(ReCacheConfig(caching_enabled=False))
    sequential.catalog = server_engine.catalog
    for query, report in zip(queries, reports):
        assert report.results == sequential.execute(query).results, query.label


def test_server_aggregates_reports(server_engine):
    queries = _pool(6)
    with EngineServer(server_engine) as server:
        aggregate = server.aggregate(queries, label="window", timeout=30.0)
    assert aggregate.label == "window"
    assert aggregate.exact_hits + aggregate.subsumption_hits + aggregate.misses == 6
    assert aggregate.rows_returned == 6  # one aggregate row per query


def test_merge_reports_sums_counters():
    first = QueryReport(rows_returned=2, total_time=0.5, exact_hits=1, misses=0)
    first.admissions["eager"] = 1
    second = QueryReport(rows_returned=3, total_time=0.25, subsumption_hits=1, misses=1)
    second.admissions["lazy"] = 2
    merged = merge_reports([first, second], label="sum")
    assert merged.rows_returned == 5
    assert merged.total_time == pytest.approx(0.75)
    assert merged.cache_hits == 2
    assert merged.misses == 1
    assert merged.admissions == {"eager": 1, "lazy": 2}
    assert merged.results == []


def test_merge_reports_carries_every_report_field():
    """Introspects QueryReport so a new counter cannot silently be dropped.

    ``results`` is intentionally dropped and ``label`` is the aggregate's
    identity; everything else must survive merging — summed, except
    ``queue_depth`` (deepest observed) and ``admissions`` (key-by-key sums,
    including keys the merge code has never heard of).
    """
    import dataclasses

    skipped = {"results", "label", "admissions"}
    first = QueryReport(label="first")
    second = QueryReport(label="second")
    value = 3
    for spec in dataclasses.fields(QueryReport):
        if spec.name in skipped:
            continue
        setattr(first, spec.name, value)
        setattr(second, spec.name, value + 1)
        value += 2
    first.admissions = {"eager": 2, "novel_kind": 5}
    second.admissions = {"eager": 1, "other_novel": 7}

    merged = merge_reports([first, second])
    for spec in dataclasses.fields(QueryReport):
        if spec.name in skipped:
            continue
        expected = (
            max(first.queue_depth, second.queue_depth)
            if spec.name == "queue_depth"
            else getattr(first, spec.name) + getattr(second, spec.name)
        )
        assert getattr(merged, spec.name) == expected, (
            f"merge_reports drops or mis-merges QueryReport.{spec.name}"
        )
    assert merged.admissions == {"eager": 3, "lazy": 0, "novel_kind": 5, "other_novel": 7}
    assert merged.results == []
    assert merged.label == "aggregate"


def test_submit_after_shutdown_raises(server_engine):
    server = EngineServer(server_engine)
    server.shutdown()
    with pytest.raises(RuntimeError):
        server.submit(_flat_query(0, 10.0))


def test_server_rejects_engine_plus_config(server_engine):
    with pytest.raises(ValueError):
        EngineServer(server_engine, config=ReCacheConfig())


def test_concurrent_runner_streams_are_deterministic(dataset_dir):
    """Same seed => same per-client query sequences, independent of timing."""
    labels: list[list[list[str]]] = []
    for _ in range(2):
        engine = build_engine(dataset_dir, ReCacheConfig())
        with EngineServer(engine, max_workers=4) as server:
            runner = ConcurrentWorkloadRunner(server, clients=3, seed=99)
            result = runner.run(_pool(12), queries_per_client=8, zipf_s=1.2)
        labels.append(
            [[row["label"] for row in client.per_query] for client in result.per_client]
        )
        assert result.total_queries == 24
        assert result.queries_per_second > 0
    assert labels[0] == labels[1]


def test_concurrent_runner_zipf_skews_toward_pool_head(dataset_dir):
    engine = build_engine(dataset_dir, ReCacheConfig())
    with EngineServer(engine, max_workers=2) as server:
        runner = ConcurrentWorkloadRunner(server, clients=2, seed=5)
        result = runner.run(_pool(10), queries_per_client=40, zipf_s=1.5)
    counts: dict[str, int] = {}
    for client in result.per_client:
        for row in client.per_query:
            counts[row["label"]] = counts.get(row["label"], 0) + 1
    head = counts.get("serve-0", 0)
    tail = counts.get("serve-9", 0)
    assert head > tail  # rank 0 is the hot query


def test_zipfian_sampler_distribution():
    rng = make_rng(3)
    sampler = ZipfianSampler(20, s=1.2)
    draws = [sampler.sample(rng) for _ in range(3000)]
    assert min(draws) >= 0 and max(draws) < 20
    frequency = [draws.count(rank) for rank in range(20)]
    assert frequency[0] > frequency[10] > 0
    uniform = ZipfianSampler(4, s=0.0)
    uniform_draws = [uniform.sample(rng) for _ in range(4000)]
    for rank in range(4):
        assert 800 < uniform_draws.count(rank) < 1200

