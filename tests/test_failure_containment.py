"""End-to-end failure containment: retries, quarantine, deadlines, worker crashes.

Every test injects a seeded fault through :mod:`repro.faults` and asserts the
stack contains it: the query either completes with a bit-identical result
(counted in the report) or fails with one typed error — and the cache's byte
accounting always returns to baseline (``assert_budget_conserved``).
"""

from __future__ import annotations

import time

import pytest

from repro import EngineServer, Query, ReCacheConfig
from repro.core.errors import (
    DeadlineExceeded,
    TransientScanError,
    WorkerCrashed,
)
from repro.engine.expressions import AggregateSpec, FieldRef, RangePredicate
from repro.engine.query import TableRef
from repro.faults import runtime as faults

from tests.conftest import build_engine
from tests.oracle import Oracle, same_rows


def flat_query(low: float = 10.0, high: float = 150.0, label: str = "contain") -> Query:
    return Query.select_aggregate(
        "flat",
        RangePredicate("value", low, high),
        [AggregateSpec("sum", FieldRef("score")), AggregateSpec("count", FieldRef("id"))],
        label=label,
    )


def flat_rows_query(low: float = 10.0, high: float = 150.0) -> Query:
    """A projection query (no aggregates) so degraded row parity is row-level."""
    return Query(tables=[TableRef("flat", RangePredicate("value", low, high))])


def whole_file_count(deadline: float) -> Query:
    return Query(
        tables=[TableRef("flat", RangePredicate("value", 0.0, 1e9))],
        aggregates=[AggregateSpec("count", FieldRef("id"))],
        deadline=deadline,
    )


@pytest.fixture()
def baseline(dataset_dir):
    """Reference results from the oracle (it parses the raw files itself, so
    an active fault plan never reaches it)."""
    return Oracle(build_engine(dataset_dir, ReCacheConfig()).catalog).evaluate


# ---------------------------------------------------------------------------
# Retry-with-backoff on transient scan faults
# ---------------------------------------------------------------------------
@pytest.mark.usefixtures("fast_retries")
def test_transient_scan_fault_is_retried(dataset_dir, baseline, assert_budget_conserved):
    engine = build_engine(dataset_dir, ReCacheConfig())
    assert_budget_conserved(engine.recache)
    query = flat_query()
    with faults.activate("scan.raw:io_error:limit=1", seed=3):
        report = engine.execute(query)
    assert report.retries == 1
    assert same_rows(report.results, baseline(query))


@pytest.mark.usefixtures("fast_retries")
def test_retry_limit_exhaustion_surfaces_typed_error(dataset_dir, assert_budget_conserved):
    engine = build_engine(dataset_dir, ReCacheConfig())
    assert_budget_conserved(engine.recache)
    with faults.activate("scan.raw:io_error", seed=3):  # every attempt faults
        with pytest.raises(TransientScanError):
            engine.execute(flat_query())
    # A failed attempt leaves no cache state behind (admission is scan-final).
    assert not engine.cache_entries()


@pytest.mark.usefixtures("fast_retries")
def test_transient_fault_during_lazy_reuse_keeps_the_entry(
    dataset_dir, baseline, assert_budget_conserved
):
    """Regression: a raw-file fault while re-reading a lazy entry's records
    was taken for corruption — the healthy entry was quarantined and the
    query degraded to a raw re-scan, with no retry."""
    engine = build_engine(dataset_dir, ReCacheConfig(admission="lazy"))
    assert_budget_conserved(engine.recache)
    query = flat_query()
    engine.execute(query)
    (entry,) = engine.cache_entries()
    assert entry.is_lazy
    with faults.activate("scan.raw:io_error:limit=1", seed=3):
        report = engine.execute(query)
    assert report.retries == 1
    assert report.quarantined_entries == 0 and report.degraded_scans == 0
    assert engine.cache_entries() == [entry]
    assert same_rows(report.results, baseline(query))


def test_failed_attempts_do_not_count_queries(dataset_dir, fast_retries):
    engine = build_engine(dataset_dir, ReCacheConfig())
    with faults.activate("scan.raw:io_error:limit=2", seed=5):
        report = engine.execute(flat_query())
    assert report.retries == 2
    assert engine.query_count == 1  # one logical query despite three attempts


@pytest.mark.usefixtures("fast_retries")
def test_cache_hit_is_served_while_its_raw_source_fails(dataset_dir, baseline):
    """Regression: a per-source circuit breaker opened after a miss exhausted
    its retries and planned every later query on that source as a raw scan,
    so a query a warm eager entry subsumes failed on the faulting file."""
    engine = build_engine(dataset_dir, ReCacheConfig(admission="eager"))
    engine.execute(flat_query(0.0, 100.0, label="warm"))
    hit = flat_query(10.0, 20.0, label="hit")
    with faults.activate("scan.raw:io_error", seed=3):  # every raw read faults
        with pytest.raises(TransientScanError):
            engine.execute(flat_query(150.0, 180.0, label="miss"))
        report = engine.execute(hit)
    assert report.subsumption_hits == 1 and report.retries == 0
    assert same_rows(report.results, baseline(hit))


# ---------------------------------------------------------------------------
# Poisoned-entry quarantine + transparent degradation to the raw source
# ---------------------------------------------------------------------------
def test_corrupt_layout_scan_quarantines_and_degrades(
    dataset_dir, baseline, assert_budget_conserved
):
    # admission="eager" forces a materialized-layout entry —
    # the corrupt fault targets layout scans, not lazy raw re-reads.
    engine = build_engine(dataset_dir, ReCacheConfig(admission="eager"))
    assert_budget_conserved(engine.recache)
    query = flat_query()
    warm = engine.execute(query)  # warms the cache
    assert engine.cache_entries(), "test needs a resident entry to poison"
    with faults.activate("scan.layout:corrupt:limit=1", seed=9):
        report = engine.execute(query)
    assert report.quarantined_entries == 1
    assert report.degraded_scans == 1
    assert report.results == warm.results and same_rows(report.results, baseline(query))
    assert engine.recache.stats.quarantined == 1


def test_quarantined_rows_query_parity(dataset_dir, baseline, assert_budget_conserved):
    engine = build_engine(dataset_dir, ReCacheConfig(admission="eager"))
    assert_budget_conserved(engine.recache)
    query = flat_rows_query()
    engine.execute(query)
    assert engine.cache_entries()
    with faults.activate("scan.layout:corrupt:limit=1", seed=2):
        report = engine.execute(query)
    assert report.degraded_scans == 1
    assert same_rows(report.results, baseline(query))


def test_quarantine_is_transparent_to_later_queries(dataset_dir, assert_budget_conserved):
    engine = build_engine(dataset_dir, ReCacheConfig(admission="eager"))
    assert_budget_conserved(engine.recache)
    query = flat_query()
    engine.execute(query)
    with faults.activate("scan.layout:corrupt:limit=1", seed=4):
        engine.execute(query)
    # The poisoned entry is gone; the next query re-materializes cleanly.
    clean = engine.execute(query)
    assert clean.quarantined_entries == 0
    assert clean.degraded_scans == 0


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------
def test_engine_deadline_exceeded_is_typed(dataset_dir):
    engine = build_engine(dataset_dir, ReCacheConfig())
    with pytest.raises(DeadlineExceeded):
        engine.execute(whole_file_count(deadline=1e-9))


def test_deadline_expiring_during_retries_is_typed(dataset_dir, monkeypatch):
    monkeypatch.setattr("repro.engine.session.SCAN_RETRY_BACKOFF", 0.05)
    monkeypatch.setattr("repro.engine.session.SCAN_RETRY_LIMIT", 50)
    engine = build_engine(dataset_dir, ReCacheConfig())
    with faults.activate("scan.raw:io_error", seed=1):  # faults every attempt
        with pytest.raises(DeadlineExceeded):
            engine.execute(whole_file_count(deadline=0.05))


def test_deadline_stops_a_slow_cache_miss_mid_scan(dataset_dir):
    """The materializer checks the deadline once per raw batch: a miss whose
    400-record scan takes ~0.4 s fails typed past its 0.1 s deadline, and
    admits nothing (admission runs only after the scan loop)."""
    engine = build_engine(dataset_dir, ReCacheConfig())
    with faults.activate("scan.raw:latency:delay=0.001", seed=1):
        with pytest.raises(DeadlineExceeded):
            engine.execute(whole_file_count(deadline=0.1))
    assert not engine.cache_entries()


def test_retry_loop_checks_the_deadline_before_backing_off(dataset_dir, monkeypatch):
    """A transient fault that escapes after the deadline has passed fails at
    once: the retry loop must not first sleep a 1-2 s backoff."""
    monkeypatch.setattr("repro.engine.session.SCAN_RETRY_BACKOFF", 2.0)
    engine = build_engine(dataset_dir, ReCacheConfig())
    spec = "scan.raw:latency:delay=0.001;scan.raw:io_error:after=300"
    with faults.activate(spec, seed=1):
        started = time.perf_counter()
        with pytest.raises(DeadlineExceeded):
            engine.execute(whole_file_count(deadline=0.05))
    assert time.perf_counter() - started < 1.0


def test_queued_past_deadline_fails_typed_not_hung(dataset_dir):
    engine = build_engine(dataset_dir, ReCacheConfig(max_workers=1))
    with EngineServer(engine, max_workers=1) as server:
        slow = flat_query(label="slow")
        fast = Query(
            tables=[TableRef("flat", RangePredicate("value", 200.0, 220.0))],
            aggregates=[AggregateSpec("count", FieldRef("id"))],
            deadline=0.02,
            label="deadlined",
        )
        # Keep the single worker busy long enough for `fast` to outlive its
        # deadline in the queue: per-record latency on the raw scan.
        with faults.activate("scan.raw:latency:delay=0.002,limit=100", seed=7):
            (slow_future,) = server.submit_batch([slow])
            time.sleep(0.05)  # let the worker pick up `slow` and stall
            (fast_future,) = server.submit_batch([fast])
            with pytest.raises(DeadlineExceeded):
                fast_future.result(timeout=10.0)
            slow_future.result(timeout=10.0)  # the slow query still completes


def test_served_deadline_counts_from_submission(dataset_dir):
    """Regression: the engine restarted a served query's deadline clock at
    execution start, so time spent queued was free — a query with a 0.2 s
    deadline queued behind a 0.15 s execution returned successfully ~0.3 s
    after submission.  Both executions here are cache hits (no scan loop
    checks the deadline mid-flight), so only a check against the submission
    instant, made before the query touches the cache, can fail it."""
    engine = build_engine(dataset_dir, ReCacheConfig())
    warm = flat_query(label="warm")
    engine.execute(warm)
    original_attempt = engine._execute_attempt

    def slow_attempt(*args, **kwargs):
        time.sleep(0.15)
        return original_attempt(*args, **kwargs)

    engine._execute_attempt = slow_attempt
    deadlined = Query(
        tables=warm.tables, aggregates=warm.aggregates, deadline=0.2, label="deadlined"
    )
    with EngineServer(engine, max_workers=1) as server:
        first = server.submit(warm)
        second = server.submit(deadlined)
        assert first.result(timeout=10.0).cache_hits == 1
        # Queued ~0.15 s (under its deadline), then ~0.15 s more before the
        # attempt begins: past 0.2 s from submission, so it must not run.
        with pytest.raises(DeadlineExceeded):
            second.result(timeout=10.0)
    assert engine.query_count == 2  # the warm-up and the first request only


# ---------------------------------------------------------------------------
# Worker crashes
# ---------------------------------------------------------------------------
def test_worker_crash_fails_futures_typed_not_hung(dataset_dir, assert_budget_conserved):
    engine = build_engine(dataset_dir, ReCacheConfig())
    assert_budget_conserved(engine.recache)
    with EngineServer(engine, max_workers=2) as server:
        with faults.activate("server.worker:worker_crash:limit=1", seed=13):
            futures = server.submit_batch([flat_query(label="crash")])
            with pytest.raises(WorkerCrashed):
                futures[0].result(timeout=10.0)
        # The server survives: the next batch is served normally.
        report = server.execute(flat_query(label="after-crash"), timeout=10.0)
        assert report.rows_returned >= 1
    assert server.queue_depth == 0


# ---------------------------------------------------------------------------
# Analyzer-surfaced containment regressions (raise-flow)
# ---------------------------------------------------------------------------
def test_conversion_fault_during_switch_quarantines_instead_of_raising(
    monkeypatch, assert_budget_conserved
):
    """record_reuse's contract is "raises nothing": a conversion fault means
    the cached bytes are suspect, so the entry is quarantined — the raw
    CorruptedCacheError must never escape the reuse path (found by the
    interprocedural raise-flow rule)."""
    from repro.core import cache_manager as cm
    from repro.core.cache_entry import LayoutObservation
    from repro.core.cache_manager import ReCache
    from repro.core.errors import CorruptedCacheError
    from repro.layouts import build_layout
    from repro.workloads.nested import ORDER_LINEITEMS_SCHEMA, synthetic_order_lineitems

    cache = assert_budget_conserved(ReCache(ReCacheConfig(layout_selection=True)))
    records = synthetic_order_lineitems(30, seed=2)
    fields = ORDER_LINEITEMS_SCHEMA.leaf_paths()
    layout = build_layout("parquet", ORDER_LINEITEMS_SCHEMA, fields, records=records)
    cache.begin_query()
    entry = cache.admit_eager(
        source="orders",
        source_format="json",
        predicate=None,
        fields=fields,
        layout=layout,
        operator_time=1.0,
        caching_time=0.5,
    )
    assert entry is not None

    def corrupt_conversion(layout, target, schema):
        raise CorruptedCacheError("stripe decode failed mid-rebuild")

    monkeypatch.setattr(cm, "convert_layout", corrupt_conversion)
    rows = entry.layout.flattened_row_count
    switched = []
    for i in range(8):
        cache.begin_query()
        observation = LayoutObservation(
            query_index=i,
            layout_name=entry.layout_name,
            data_cost=1.0,
            compute_cost=2.0,
            rows_accessed=rows,
            columns_accessed=3,
            accessed_nested=True,
        )
        switched.append(cache.record_reuse(entry, 3.0, 0.001, observation))
    assert all(result is None for result in switched)  # fault contained
    assert cache.stats.quarantined == 1
    assert cache.stats.layout_switches == 0
    assert cache.total_bytes == 0  # quarantine evicted the poisoned entry


def test_admission_hook_fault_keeps_occupancy_equal_to_resident_bytes(
    monkeypatch, assert_budget_conserved
):
    """A policy hook raising mid-install must not leave occupancy counting
    bytes that no resident entry holds (the teardown fixture checks)."""
    from repro.core.cache_manager import ReCache
    from repro.engine.types import FLOAT, Field, RecordType
    from repro.layouts import build_layout

    cache = assert_budget_conserved(ReCache(ReCacheConfig(cache_size_limit=50_000)))

    def exploding_on_admit(self, entry, sequence):
        raise RuntimeError("policy bookkeeping bug")

    monkeypatch.setattr(type(cache.policy), "on_admit", exploding_on_admit)
    schema = RecordType([Field("x", FLOAT), Field("y", FLOAT)])
    rows = [{"x": float(i), "y": 2.0 * i} for i in range(50)]
    layout = build_layout("columnar", schema, ["x", "y"], rows=rows)
    cache.begin_query()
    with pytest.raises(RuntimeError):
        cache.admit_eager(
            source="t",
            source_format="csv",
            predicate=None,
            fields=["x", "y"],
            layout=layout,
            operator_time=1.0,
            caching_time=0.5,
        )
    assert cache.total_bytes == sum(entry.nbytes for entry in cache.entries())


# ---------------------------------------------------------------------------
# Disabled fault hooks are (nearly) free
# ---------------------------------------------------------------------------
def test_disabled_fault_hooks_cost_under_two_percent_of_a_cache_hit(dataset_dir):
    """The injection points are built for a zero-cost disabled path: one
    ``faults.injector_for`` lookup hoisted per scan (``None`` when no plan is
    installed) and one ``is not None`` guard per batch.  Measure those two
    primitives, scale them by the hook counts of one warm query (counted
    conservatively) and hold the sum under 2% of the measured query time."""
    assert faults.active_plan() is None
    engine = build_engine(
        dataset_dir,
        ReCacheConfig(admission="eager", layout_selection=False),
    )
    query = flat_query()
    engine.execute(query)  # warm the cache
    repeats = 50
    started = time.perf_counter()
    for _ in range(repeats):
        assert engine.execute(query).exact_hits == 1
    per_query = (time.perf_counter() - started) / repeats
    rows = engine.recache.entries()[0].layout.flattened_row_count

    probes = 50_000
    started = time.perf_counter()
    for _ in range(probes):
        faults.injector_for("scan.raw", "bench")
    lookup_cost = (time.perf_counter() - started) / probes
    injector = None
    started = time.perf_counter()
    for _ in range(probes):
        if injector is not None:
            injector()
    guard_cost = (time.perf_counter() - started) / probes

    # Hoisted lookups on the scan + degrade-ready paths; one guard per
    # 1024-record batch plus the vectorized fast path's mask guards.
    hook_cost = 4 * lookup_cost + (rows / 1024 + 4) * guard_cost
    assert hook_cost <= 0.02 * per_query, (
        f"disabled fault hooks cost {hook_cost * 1e9:.0f}ns of a "
        f"{per_query * 1e6:.1f}us cache hit ({hook_cost / per_query:.2%})"
    )
