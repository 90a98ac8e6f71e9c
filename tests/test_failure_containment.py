"""End-to-end failure containment: retries, quarantine, breaker, deadlines, shedding.

Every test injects a seeded fault through :mod:`repro.faults` and asserts the
stack contains it: the query either completes with a bit-identical result
(counted in the report) or fails with one typed error — and the cache's byte
accounting always returns to baseline (``assert_budget_conserved``).
"""

from __future__ import annotations

import time

import pytest

from repro import EngineServer, Query, ReCacheConfig
from repro.core.circuit_breaker import SourceCircuitBreaker
from repro.core.errors import (
    DeadlineExceeded,
    QueryRejected,
    TransientScanError,
    WorkerCrashed,
)
from repro.engine.expressions import AggregateSpec, FieldRef, RangePredicate
from repro.engine.algebra import CacheScanNode, MaterializeNode
from repro.engine.optimizer import build_plan
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


@pytest.fixture()
def baseline(dataset_dir):
    """Reference results from the oracle (it parses the raw files itself, so
    an active fault plan never reaches it)."""
    return Oracle(build_engine(dataset_dir, ReCacheConfig()).catalog).evaluate


# ---------------------------------------------------------------------------
# Retry-with-backoff on transient scan faults
# ---------------------------------------------------------------------------
def test_transient_scan_fault_is_retried(dataset_dir, baseline, assert_budget_conserved):
    engine = build_engine(
        dataset_dir, ReCacheConfig(scan_retry_limit=2, scan_retry_backoff=0.001)
    )
    assert_budget_conserved(engine.recache)
    query = flat_query()
    with faults.activate("scan.raw:io_error:limit=1", seed=3):
        report = engine.execute(query)
    assert report.retries == 1
    assert same_rows(report.results, baseline(query))


def test_retry_limit_exhaustion_surfaces_typed_error(dataset_dir, assert_budget_conserved):
    engine = build_engine(
        dataset_dir, ReCacheConfig(scan_retry_limit=1, scan_retry_backoff=0.001)
    )
    assert_budget_conserved(engine.recache)
    with faults.activate("scan.raw:io_error", seed=3):  # every attempt faults
        with pytest.raises(TransientScanError):
            engine.execute(flat_query())
    # A failed attempt leaves no cache state behind (admission is scan-final).
    assert not engine.cache_entries()


def test_failed_attempts_do_not_count_queries(dataset_dir):
    engine = build_engine(
        dataset_dir, ReCacheConfig(scan_retry_limit=3, scan_retry_backoff=0.001)
    )
    with faults.activate("scan.raw:io_error:limit=2", seed=5):
        report = engine.execute(flat_query())
    assert report.retries == 2
    assert engine.query_count == 1  # one logical query despite three attempts


# ---------------------------------------------------------------------------
# Poisoned-entry quarantine + transparent degradation to the raw source
# ---------------------------------------------------------------------------
def test_corrupt_layout_scan_quarantines_and_degrades(
    dataset_dir, baseline, assert_budget_conserved
):
    # adaptive_admission=False forces an eager (materialized-layout) entry —
    # the corrupt fault targets layout scans, not lazy raw re-reads.
    engine = build_engine(dataset_dir, ReCacheConfig(adaptive_admission=False))
    assert_budget_conserved(engine.recache)
    query = flat_query()
    warm = engine.execute(query)  # warms the cache
    assert engine.cache_entries(), "test needs a resident entry to poison"
    with faults.activate("scan.layout:corrupt:limit=1", seed=9):
        report = engine.execute(query)
    assert report.quarantined_entries == 1
    assert report.degraded_scans == 1
    assert report.results == warm.results and same_rows(report.results, baseline(query))
    assert engine.recache.stats.extras.get("quarantined", 0) == 1


def test_quarantined_rows_query_parity(dataset_dir, baseline, assert_budget_conserved):
    engine = build_engine(dataset_dir, ReCacheConfig(adaptive_admission=False))
    assert_budget_conserved(engine.recache)
    query = flat_rows_query()
    engine.execute(query)
    assert engine.cache_entries()
    with faults.activate("scan.layout:corrupt:limit=1", seed=2):
        report = engine.execute(query)
    assert report.degraded_scans == 1
    assert same_rows(report.results, baseline(query))


def test_quarantine_is_transparent_to_later_queries(dataset_dir, assert_budget_conserved):
    engine = build_engine(dataset_dir, ReCacheConfig(adaptive_admission=False))
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
# Budget exhaustion: admission denied, query unaffected
# ---------------------------------------------------------------------------
def test_budget_exhaustion_denies_admission_not_results(
    dataset_dir, baseline, assert_budget_conserved
):
    # A real byte limit makes the sharded cache enforce admissions through
    # SharedBudget.try_reserve — the injected scope.
    engine = build_engine(
        dataset_dir,
        ReCacheConfig(shard_count=2, cache_size_limit=1_000_000, adaptive_admission=False),
    )
    assert_budget_conserved(engine.recache)
    query = flat_query()
    with faults.activate("budget.reserve:budget_exhausted", seed=6):
        report = engine.execute(query)
    assert same_rows(report.results, baseline(query))
    assert not engine.cache_entries()
    assert engine.recache.budget.reserved == 0


# ---------------------------------------------------------------------------
# Per-source circuit breaker
# ---------------------------------------------------------------------------
def test_breaker_unit_semantics():
    breaker = SourceCircuitBreaker(failure_threshold=2, cooldown=0.05)
    assert not breaker.is_open("flat")
    assert not breaker.record_failure("flat")
    assert breaker.record_failure("flat")  # threshold reached -> opened
    assert breaker.is_open("flat")
    assert breaker.open_sources() == ["flat"]
    time.sleep(0.06)
    assert not breaker.is_open("flat")  # half-open probe after cooldown
    breaker.record_success("flat")
    assert not breaker.record_failure("flat")  # success cleared the streak


def test_open_breaker_routes_plan_around_cache(dataset_dir):
    engine = build_engine(
        dataset_dir,
        ReCacheConfig(
            scan_retry_limit=0, breaker_failure_threshold=1, breaker_cooldown=30.0
        ),
    )
    query = flat_query()
    with faults.activate("scan.raw:io_error", seed=8):
        with pytest.raises(TransientScanError):
            engine.execute(query)
    assert engine.breaker.is_open("flat")
    info = build_plan(query, engine.catalog, engine.recache, breaker=engine.breaker)

    # Walk the plan: an open source plans as a plain raw select, never a
    # cache materialize/scan.
    def table_nodes(plan):
        stack, found = [plan], []
        while stack:
            current = stack.pop()
            if isinstance(current, (MaterializeNode, CacheScanNode)):
                found.append(current)
            stack.extend(current.children())
        return found

    assert not table_nodes(info.plan), "open source must bypass the cache entirely"


def test_open_breaker_still_serves_correct_results(dataset_dir, baseline):
    engine = build_engine(
        dataset_dir,
        ReCacheConfig(
            scan_retry_limit=0, breaker_failure_threshold=1, breaker_cooldown=30.0
        ),
    )
    query = flat_query()
    with faults.activate("scan.raw:io_error:limit=1", seed=8):
        with pytest.raises(TransientScanError):
            engine.execute(query)
    assert engine.breaker.is_open("flat")
    report = engine.execute(query)  # served raw while the breaker is open
    assert same_rows(report.results, baseline(query))
    assert not engine.cache_entries()


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------
def test_engine_deadline_exceeded_is_typed(dataset_dir):
    engine = build_engine(dataset_dir, ReCacheConfig())
    query = Query(
        tables=[TableRef("flat", RangePredicate("value", 0.0, 1e9))],
        aggregates=[AggregateSpec("count", FieldRef("id"))],
        deadline=1e-9,
    )
    with pytest.raises(DeadlineExceeded):
        engine.execute(query)


def test_config_default_deadline_applies(dataset_dir):
    engine = build_engine(dataset_dir, ReCacheConfig(default_deadline=1e-9))
    with pytest.raises(DeadlineExceeded):
        engine.execute(flat_query())


def test_deadline_expiring_during_retries_is_typed(dataset_dir):
    engine = build_engine(
        dataset_dir,
        ReCacheConfig(scan_retry_limit=50, scan_retry_backoff=0.05),
    )
    query = Query(
        tables=[TableRef("flat", RangePredicate("value", 0.0, 1e9))],
        aggregates=[AggregateSpec("count", FieldRef("id"))],
        deadline=0.05,
    )
    with faults.activate("scan.raw:io_error", seed=1):  # faults every attempt
        with pytest.raises(DeadlineExceeded):
            engine.execute(query)


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


# ---------------------------------------------------------------------------
# Load shedding under eviction pressure
# ---------------------------------------------------------------------------
def test_shedding_rejects_typed_when_queue_full_under_pressure(dataset_dir):
    engine = build_engine(
        dataset_dir, ReCacheConfig(max_workers=1, shed_pressure_threshold=0.5)
    )
    engine.recache.eviction_pressure = lambda: 0.9  # deterministic churn signal
    with EngineServer(engine, max_workers=1, max_pending=1) as server:
        with faults.activate("scan.raw:latency:delay=0.002,limit=200", seed=11):
            (busy,) = server.submit_batch([flat_query(label="busy")])
            time.sleep(0.05)  # the queue is now full (1 pending >= max_pending)
            with pytest.raises(QueryRejected):
                server.submit_batch([flat_query(label="rejected")])
            busy.result(timeout=10.0)
    assert server.queue_depth == 0  # rejection leaked no backpressure capacity


def test_no_shedding_without_pressure(dataset_dir):
    engine = build_engine(
        dataset_dir, ReCacheConfig(max_workers=1, shed_pressure_threshold=0.5)
    )
    engine.recache.eviction_pressure = lambda: 0.0
    with EngineServer(engine, max_workers=1, max_pending=1) as server:
        (busy,) = server.submit_batch([flat_query(label="busy")])
        # A full queue WITHOUT churn blocks (classic backpressure), then admits.
        (second,) = server.submit_batch([flat_query(label="second")])
        assert busy.result(timeout=10.0).rows_returned >= 0
        assert second.result(timeout=10.0).rows_returned >= 0


def test_fresh_cache_has_zero_eviction_pressure(dataset_dir):
    engine = build_engine(dataset_dir, ReCacheConfig())
    assert engine.recache.eviction_pressure() == 0.0


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
# Analyzer-surfaced containment regressions (raise-flow / reservation-leak)
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
    assert cache.stats.extras.get("quarantined", 0) == 1
    assert cache.stats.layout_switches == 0
    assert cache.total_bytes == 0  # quarantine evicted the poisoned entry


def test_admission_hook_fault_settles_pooled_reservation(
    monkeypatch, assert_budget_conserved
):
    """A policy hook raising mid-install must not strand the pooled budget
    reservation: the try/finally on admit_eager's exception edge settles it
    (found by the reservation-leak rule)."""
    from repro.core.cache_manager import ReCache
    from repro.core.sharded_cache import SharedBudget
    from repro.engine.types import FLOAT, Field, RecordType
    from repro.layouts import build_layout

    budget = SharedBudget(limit=100_000)
    cache = assert_budget_conserved(
        ReCache(ReCacheConfig(cache_size_limit=50_000), shared_budget=budget)
    )

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
    # The exception edge settled the reservation; accounting stays conserved
    # (the teardown fixture re-checks occupancy == resident bytes).
    assert budget.reserved == 0


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
        ReCacheConfig(adaptive_admission=False, layout_selection=False),
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
