#!/usr/bin/env python
"""Macro-benchmark of the batched execution pipeline (legacy tracked bench).

Runs the Yelp-style, TPC-H and Symantec-style workloads on fresh engines and
additionally measures six cache-hit fast paths in isolation: repeated
selective range queries against a warm relational columnar cache (the scan
shape ReCache's reuse argument rests on), repeated flat-field scans against a
warm *parquet* cache (striped-column batch slicing + NumPy masks, no row
assembly), repeated *nested-field* range scans against the same warm parquet
cache (the nested-predicate vectorizer: entry-granular masks over raw striped
levels, ``np.logical_or.reduceat`` to record granularity), repeated grouped
aggregation against a warm columnar cache (the NumPy-backed group-by), a
repeated cache-hit equi-join (the factorized NumPy probe), and a rows-heavy
select served with ``result_format="rows"`` versus ``"columnar"`` (the
columnar pipeline exit that skips per-row dict materialization).

Results are written to ``BENCH_batch_pipeline.json``: queries/sec per workload
and section (under the ``"batched"`` key, so the numbers line up with
recordings made while a row interpreter still ran beside the pipeline; its
last measured ratios are in CHANGES.md, PR 12) and the per-operator time
breakdown (operator / caching / cache-scan / lookup).  CI runs the benchmark
in ``--smoke`` mode (tiny datasets) and archives the JSON as a workflow
artifact.  The benchmark PRs are judged by is ``benchmarks/e2e`` +
``BENCHMARK.json``, not this file.

Usage::

    PYTHONPATH=src python benchmarks/bench_batch_pipeline.py [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

from repro import (
    AggregateSpec,
    FieldRef,
    JoinSpec,
    Or,
    Query,
    QueryEngine,
    RangePredicate,
    ReCacheConfig,
    TableRef,
)
from repro.bench.datasets import order_lineitems_engine, symantec_engine, tpch_engine, yelp_engine
from repro.faults import runtime as faults
from repro.workloads.queries import (
    spj_tpch_workload,
    symantec_mixed_workload,
    yelp_spa_workload,
)

#: deterministic eager admission, layout pinned: what every isolated section uses
PINNED = {"adaptive_admission": False, "layout_selection": False}


def run_workload(name: str, engine: QueryEngine, queries: list[Query]) -> dict:
    """Run one query sequence on a fresh engine."""
    started = time.perf_counter()
    operator = caching = cache_scan = lookup = 0.0
    rows = 0
    for query in queries:
        report = engine.execute(query)
        operator += report.operator_time
        caching += report.caching_time
        cache_scan += report.cache_scan_time
        lookup += report.lookup_time
        rows += report.rows_returned
    wall = time.perf_counter() - started
    stats = engine.cache_stats
    result = {
        "queries": len(queries),
        "wall_time_s": wall,
        "queries_per_sec": len(queries) / wall if wall > 0 else 0.0,
        "rows_returned": rows,
        "operator_time_s": operator,
        "caching_time_s": caching,
        "cache_scan_time_s": cache_scan,
        "lookup_time_s": lookup,
        "cache_hits": stats.hits,
        "cache_misses": stats.misses,
    }
    print(f"[{name}] {result['queries_per_sec']:.1f} q/s")
    return {"batched": result}


def _time_hits(name: str, engine: QueryEngine, query: Query, repeats: int, tables: int = 1):
    """Warm ``query``'s cache with one cold execution, then time ``repeats`` hits.

    Returns ``(warm report, last hit report, timing dict)``; only the hit phase
    is timed.
    """
    warm = engine.execute(query)
    assert warm.misses == tables, "warm-up should miss on every input"
    started = time.perf_counter()
    for _ in range(repeats):
        report = engine.execute(query)
    wall = time.perf_counter() - started
    assert report.exact_hits == tables, "hit phase should be served from cache"
    timing = {
        "repeats": repeats,
        "wall_time_s": wall,
        "queries_per_sec": repeats / wall if wall > 0 else 0.0,
    }
    print(f"[{name}] {timing['queries_per_sec']:.1f} q/s")
    return warm, report, timing


def run_columnar_cache_hit(scale_factor: float, repeats: int) -> dict:
    """Cache-hit columnar scans with a selective numeric predicate, isolated.

    The engine warms an eagerly admitted relational columnar cache over TPC-H
    lineitem, then serves ``repeats`` identical selective range queries from
    it.  This is the path the pipeline optimizes hardest: a full-column NumPy
    mask plus a column gather.
    """
    query = Query.select_aggregate(
        "lineitem",
        RangePredicate("l_extendedprice", 10_000.0, 20_000.0),
        [
            AggregateSpec("sum", FieldRef("l_extendedprice")),
            AggregateSpec("avg", FieldRef("l_quantity")),
            AggregateSpec("count", FieldRef("l_orderkey")),
        ],
        label="columnar-cache-hit",
    )
    config = ReCacheConfig(default_flat_layout="columnar", **PINNED)
    engine = tpch_engine(config, scale_factor=scale_factor)
    _, _, timing = _time_hits("columnar-cache-hit", engine, query, repeats)
    timing["rows_scanned_per_query"] = engine.recache.entries()[0].layout.flattened_row_count
    return {"batched": timing}


def _parquet_hit_section(name: str, query: Query, orders_scale: float, repeats: int) -> dict:
    config = ReCacheConfig(default_nested_layout="parquet", **PINNED)
    engine = order_lineitems_engine(config, scale_factor=orders_scale)
    _, _, timing = _time_hits(name, engine, query, repeats)
    entry = engine.recache.entries()[0]
    assert entry.layout.layout_name == "parquet"
    timing["records_scanned_per_query"] = entry.layout.record_count
    return {"batched": timing}


def run_parquet_cache_hit(orders_scale: float, repeats: int) -> dict:
    """Cache-hit parquet scans over flat (parent-level) fields, isolated.

    The predicate is an Or of ranges — deliberately *not* a pure conjunctive
    range, so the scan takes the general path: ``scan_batches`` column slices
    stream straight out of the stripes (no assembly) and one NumPy mask per
    batch evaluates over the pre-seeded float64 views.
    """
    predicate = Or(
        [
            RangePredicate("o_totalprice", 20_000.0, 120_000.0),
            RangePredicate("o_orderdate", 9_000.0, 9_600.0),
        ]
    )
    query = Query.select_aggregate(
        "orderLineitems",
        predicate,
        [
            AggregateSpec("sum", FieldRef("o_totalprice")),
            AggregateSpec("avg", FieldRef("o_orderdate")),
            AggregateSpec("count", FieldRef("o_orderkey")),
        ],
        label="parquet-cache-hit",
    )
    return _parquet_hit_section("parquet-cache-hit", query, orders_scale, repeats)


def run_nested_predicate(orders_scale: float, repeats: int) -> dict:
    """Cache-hit parquet scans filtered by a *nested-field* predicate, isolated.

    The predicate is a closed conjunctive range over ``lineitems.l_quantity``
    — a leaf below the repeated level — so this measures the nested-predicate
    vectorizer directly: one NumPy mask over the raw striped entry arrays
    (validity from the definition levels, no per-record level walk), entry
    hits reduced to record hits with ``np.logical_or.reduceat``.  This is the
    exact shape that used to force the whole Symantec workload onto the
    per-row fallback.
    """
    query = Query.select_aggregate(
        "orderLineitems",
        RangePredicate("lineitems.l_quantity", 10.0, 35.0),
        [
            AggregateSpec("sum", FieldRef("lineitems.l_extendedprice")),
            AggregateSpec("avg", FieldRef("lineitems.l_quantity")),
            AggregateSpec("count", FieldRef("o_orderkey")),
        ],
        label="nested-predicate-cache-hit",
    )
    return _parquet_hit_section("nested-predicate", query, orders_scale, repeats)


def run_groupby_cache_hit(scale_factor: float, repeats: int) -> dict:
    """Grouped aggregation over a warm relational columnar cache, isolated.

    The predicate is a wide closed range (nearly every row passes) so the
    measurement is dominated by the group-by itself: the NumPy-backed
    factorize + per-group slice reductions.
    """
    query = Query(
        tables=[TableRef("lineitem", RangePredicate("l_quantity", 1.0, 50.0))],
        aggregates=[
            AggregateSpec("sum", FieldRef("l_extendedprice")),
            AggregateSpec("avg", FieldRef("l_quantity")),
            AggregateSpec("count", FieldRef("l_orderkey")),
            AggregateSpec("min", FieldRef("l_discount")),
        ],
        group_by=["l_suppkey"],
        label="groupby-cache-hit",
    )
    config = ReCacheConfig(default_flat_layout="columnar", **PINNED)
    engine = tpch_engine(config, scale_factor=scale_factor)
    _, report, timing = _time_hits("groupby-cache-hit", engine, query, repeats)
    timing["groups_per_query"] = report.rows_returned
    return {"batched": timing}


def run_join_cache_hit(scale_factor: float, repeats: int) -> dict:
    """Cache-hit equi-join (orders x lineitem), isolated.

    The engine warms eagerly admitted columnar caches over *both* join inputs
    with one cold query (two misses), then serves ``repeats`` identical join
    queries entirely from cache.  This isolates the join operator itself: the
    factorized probe — build keys grouped once, whole probe key columns
    resolved via NumPy ``searchsorted``, matches expanded as index arrays.
    """
    query = Query(
        tables=[
            TableRef("orders", RangePredicate("o_totalprice", 1_000.0, 400_000.0)),
            TableRef("lineitem", RangePredicate("l_quantity", 1.0, 40.0)),
        ],
        joins=[JoinSpec("orders", "o_orderkey", "lineitem", "l_orderkey")],
        aggregates=[
            # The count runs over the join key, which is non-null on every
            # matched row, so its value IS the join cardinality — recorded
            # below as the section's sanity metric.
            AggregateSpec("count", FieldRef("l_orderkey"), alias="join_rows"),
            AggregateSpec("sum", FieldRef("l_extendedprice")),
        ],
        label="join-cache-hit",
    )
    config = ReCacheConfig(default_flat_layout="columnar", **PINNED)
    engine = tpch_engine(config, scale_factor=scale_factor)
    warm, report, timing = _time_hits("join-cache-hit", engine, query, repeats, tables=2)
    timing["join_output_rows"] = warm.results[0]["join_rows"]
    timing["operator_time_s_per_query"] = report.operator_time
    return {"batched": timing}


def run_columnar_exit(scale_factor: float, repeats: int) -> dict:
    """Rows-heavy select served from a warm columnar cache: rows vs columnar exit.

    One engine, one warm cache, two timed hit phases over the same
    query — the only difference is the pipeline exit: ``result_format="rows"``
    materializes one Python dict per output row, ``"columnar"`` hands the
    pipeline's record batches to the caller as-is.  The query keeps most rows
    (a wide conjunctive range over two columns), so the measurement is
    dominated by the exit itself.  A parity assert keeps the two phases
    honest: the columnar result's ``to_rows()`` must equal the rows output.
    Full-run target: >= 1.2x.
    """
    query = Query(
        tables=[
            TableRef(
                "lineitem",
                RangePredicate("l_extendedprice", 1_000.0, 90_000.0),
            )
        ],
        label="columnar-exit",
    )
    config = ReCacheConfig(default_flat_layout="columnar", **PINNED)
    engine = tpch_engine(config, scale_factor=scale_factor)
    warm = engine.execute(query)
    assert warm.misses == 1, "warm-up should miss"
    results: dict[str, dict] = {}
    parity: dict[str, object] = {}
    for result_format in ("rows", "columnar"):
        started = time.perf_counter()
        for _ in range(repeats):
            report = engine.execute(query, result_format=result_format)
        wall = time.perf_counter() - started
        assert report.exact_hits == 1, "hit phase should be served from cache"
        parity[result_format] = report.results
        results[result_format] = {
            "repeats": repeats,
            "wall_time_s": wall,
            "queries_per_sec": repeats / wall if wall > 0 else 0.0,
            "rows_returned_per_query": report.rows_returned,
        }
    assert parity["columnar"].to_rows() == parity["rows"], "columnar exit lost parity"
    rows_wall = results["rows"]["wall_time_s"]
    columnar_wall = results["columnar"]["wall_time_s"]
    results["speedup"] = rows_wall / columnar_wall if columnar_wall > 0 else 0.0
    print(
        f"[columnar-exit] rows {results['rows']['queries_per_sec']:.1f} q/s, "
        f"columnar {results['columnar']['queries_per_sec']:.1f} q/s "
        f"(speedup {results['speedup']:.2f}x)"
    )
    return results


def run_fault_hook_overhead(scale_factor: float, repeats: int) -> dict:
    """Disabled fault-injection hooks must cost <= 2% of a batched cache hit.

    The injection points are built for a zero-cost disabled path: one
    ``faults.injector_for`` lookup hoisted per scan (returns ``None`` when no
    plan is installed) and one ``is not None`` branch per record/batch on the
    hot loops.  This section measures those two primitives directly, scales
    them by the hook counts an actual batched cache-hit query executes (a few
    hoisted lookups plus one guard per ~1024-record batch on ``scan_batches``;
    the vectorized range fast path guards once per mask), and asserts the sum
    stays under 2% of the measured per-query time — turning "zero overhead
    when disabled" from a design claim into a tracked number.
    """
    assert faults.active_plan() is None, "bench must run without a fault plan"
    query = Query.select_aggregate(
        "lineitem",
        RangePredicate("l_extendedprice", 10_000.0, 20_000.0),
        [AggregateSpec("sum", FieldRef("l_extendedprice"))],
        label="fault-hook-overhead",
    )
    config = ReCacheConfig(default_flat_layout="columnar", **PINNED)
    engine = tpch_engine(config, scale_factor=scale_factor)
    engine.execute(query)  # warm the cache
    started = time.perf_counter()
    for _ in range(repeats):
        engine.execute(query)
    per_query = (time.perf_counter() - started) / repeats
    rows = engine.recache.entries()[0].layout.flattened_row_count

    probe_iters = 50_000
    started = time.perf_counter()
    for _ in range(probe_iters):
        faults.injector_for("scan.raw", "bench")
    lookup_cost = (time.perf_counter() - started) / probe_iters
    injector = None
    started = time.perf_counter()
    for _ in range(probe_iters):
        if injector is not None:
            injector()
    guard_cost = (time.perf_counter() - started) / probe_iters

    # Hook budget of one batched cache-hit query, counted conservatively:
    # hoisted lookups on the scan + degrade-ready paths, one guard per
    # 1024-record batch plus the fast-path mask guards.
    lookups_per_query = 4
    guards_per_query = rows / 1024 + 4
    hook_cost = lookups_per_query * lookup_cost + guards_per_query * guard_cost
    overhead = hook_cost / per_query if per_query > 0 else 0.0
    results = {
        "per_query_s": per_query,
        "injector_lookup_s": lookup_cost,
        "disabled_guard_s": guard_cost,
        "hook_cost_per_query_s": hook_cost,
        "overhead_fraction": overhead,
    }
    print(
        f"[fault-hook-overhead] per-query {per_query * 1e6:.1f}us, "
        f"hooks {hook_cost * 1e9:.0f}ns ({overhead * 100:.3f}%)"
    )
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny datasets for CI: verifies every section is measured; gates only the fault-hook overhead",
    )
    parser.add_argument("--out", default="BENCH_batch_pipeline.json", help="output JSON path")
    args = parser.parse_args()

    if args.smoke:
        yelp_records, tpch_scale, symantec_json = 200, 0.002, 150
        num_queries, hit_repeats, hit_scale = 15, 10, 0.005
        orders_scale, parquet_repeats, groupby_repeats = 0.004, 30, 15
        join_repeats, exit_repeats = 15, 20
    else:
        yelp_records, tpch_scale, symantec_json = 1500, 0.01, 1200
        num_queries, hit_repeats, hit_scale = 60, 50, 0.02
        orders_scale, parquet_repeats, groupby_repeats = 0.02, 60, 40
        join_repeats, exit_repeats = 40, 50

    workloads = {
        "yelp": run_workload(
            "yelp",
            yelp_engine(ReCacheConfig(), total_records=yelp_records),
            yelp_spa_workload(num_queries, seed=19),
        ),
        "tpch": run_workload(
            "tpch",
            tpch_engine(ReCacheConfig(), scale_factor=tpch_scale),
            spj_tpch_workload(num_queries, seed=13),
        ),
        "symantec": run_workload(
            "symantec",
            symantec_engine(ReCacheConfig(), json_records=symantec_json),
            symantec_mixed_workload(num_queries, seed=17),
        ),
    }
    cache_hit = run_columnar_cache_hit(hit_scale, hit_repeats)
    parquet_hit = run_parquet_cache_hit(orders_scale, parquet_repeats)
    nested_hit = run_nested_predicate(orders_scale, parquet_repeats)
    groupby_hit = run_groupby_cache_hit(hit_scale, groupby_repeats)
    join_hit = run_join_cache_hit(hit_scale, join_repeats)
    columnar_exit = run_columnar_exit(hit_scale, exit_repeats)
    fault_hooks = run_fault_hook_overhead(hit_scale, hit_repeats)

    payload = {
        "benchmark": "batch_pipeline",
        "smoke": args.smoke,
        "unix_time": time.time(),
        "python": platform.python_version(),
        "workloads": workloads,
        "columnar_cache_hit": cache_hit,
        "parquet_cache_hit": parquet_hit,
        "nested_predicate": nested_hit,
        "groupby_cache_hit": groupby_hit,
        "join_cache_hit": join_hit,
        "columnar_exit": columnar_exit,
        "fault_hook_overhead": fault_hooks,
    }
    out_path = Path(args.out)
    out_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out_path}")

    # Every section must have been *measured*; the one gate is the disabled
    # fault-hook budget.  The columnar-exit floor (full runs only) compares two
    # exits of the same engine, so it survives without a second executor.
    isolated = {
        "columnar_cache_hit": cache_hit,
        "parquet_cache_hit": parquet_hit,
        "nested_predicate": nested_hit,
        "groupby_cache_hit": groupby_hit,
        "join_cache_hit": join_hit,
    }
    for name, result in {**workloads, **isolated}.items():
        assert result["batched"]["queries_per_sec"] > 0.0, f"{name} not measured"
    for result_format in ("rows", "columnar"):
        assert columnar_exit[result_format]["queries_per_sec"] > 0.0, (
            f"columnar_exit/{result_format} not measured"
        )
    if fault_hooks["overhead_fraction"] > 0.02:
        raise SystemExit(
            f"disabled fault hooks cost {fault_hooks['overhead_fraction'] * 100:.2f}% "
            "of a batched cache-hit query (budget: 2%)"
        )
    if not args.smoke and columnar_exit["speedup"] < 1.2:
        raise SystemExit(
            f"columnar_exit speedup {columnar_exit['speedup']:.2f}x below the 1.2x target"
        )

if __name__ == "__main__":
    main()
