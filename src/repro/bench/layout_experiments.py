"""Layout experiments: Figures 1, 5, 6, 7 and 9 of the paper.

Figures 1, 5, 6 and 7 are micro-experiments over pre-built caches of nested
data (the paper pre-populates the caches to isolate cache-scan performance from
cache construction); Figure 9 runs the full engine with ReCache's automatic
layout selection against the two static layouts.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.core.cache_entry import LayoutObservation
from repro.core.cost_model import LayoutCostModel, closest_compute_cost, percentage_error
from repro.engine.calibration import split_scan_cost
from repro.engine.compiler import compile_predicate
from repro.engine.expressions import RangePredicate
from repro.layouts import ColumnarLayout, ParquetLayout, build_layout
from repro.utils.rng import make_rng
from repro.workloads.nested import (
    CARDINALITY_SWEEP_SCHEMA,
    ORDER_LINEITEMS_SCHEMA,
    cardinality_sweep_records,
    synthetic_order_lineitems,
)
from repro.workloads.queries import AttributeSchedule
from repro.workloads.tpch import TPCH_FIELD_RANGES
from repro.bench.reporting import closeness_to_optimal, fraction_below


# ---------------------------------------------------------------------------
# Shared query-shape generator for the orderLineitems micro-experiments
# ---------------------------------------------------------------------------
def _order_lineitems_layout_queries(
    num_queries: int, schedule: AttributeSchedule, seed: int = 3
) -> list[dict]:
    """Per-query field sets and predicates in the Section 4.1 query shape."""
    rng = make_rng(seed)
    ranges = TPCH_FIELD_RANGES["orderLineitems"]
    all_fields = list(ranges)
    non_nested = [f for f in all_fields if not ORDER_LINEITEMS_SCHEMA.is_nested_path(f)]
    queries = []
    for index in range(num_queries):
        pool = all_fields if schedule.pool_for(index) == "all" else non_nested
        predicate_field = rng.choice(pool)
        low, high = ranges[predicate_field]
        width = (high - low) * rng.uniform(0.1, 0.9)
        start = rng.uniform(low, high - width)
        agg_fields = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        fields = sorted(set(agg_fields) | {predicate_field})
        queries.append(
            {
                "index": index,
                "fields": fields,
                "predicate": RangePredicate(predicate_field, start, start + width),
                "accesses_nested": any(
                    ORDER_LINEITEMS_SCHEMA.is_nested_path(f) for f in fields
                ),
            }
        )
    return queries


def _timed_scan(layout, fields: Sequence[str], predicate) -> tuple[float, int]:
    """Scan a layout applying a compiled predicate; returns (seconds, rows scanned)."""
    compiled = compile_predicate(predicate)
    started = time.perf_counter()
    scanned = 0
    matched = 0
    for row in layout.scan(fields=fields):
        scanned += 1
        if compiled(row):
            matched += 1
    return time.perf_counter() - started, scanned


# ---------------------------------------------------------------------------
# Figure 1: static Parquet vs relational columnar over the 600-query sequence
# ---------------------------------------------------------------------------
def figure1_layout_gap(num_orders: int = 600, num_queries: int = 120, seed: int = 3) -> dict:
    """Execution time per query for Parquet and columnar caches of nested data.

    First half of the queries draws attributes from all attributes, second half
    from non-nested attributes only — the workload of Figure 1 (and 9a).
    """
    records = synthetic_order_lineitems(num_orders, seed=seed)
    fields = ORDER_LINEITEMS_SCHEMA.leaf_paths()
    parquet = build_layout("parquet", ORDER_LINEITEMS_SCHEMA, fields, records=records)
    columnar = build_layout("columnar", ORDER_LINEITEMS_SCHEMA, fields, records=records)
    queries = _order_lineitems_layout_queries(num_queries, AttributeSchedule.halves(num_queries), seed)

    parquet_times, columnar_times = [], []
    for query in queries:
        p_time, _ = _timed_scan(parquet, query["fields"], query["predicate"])
        c_time, _ = _timed_scan(columnar, query["fields"], query["predicate"])
        parquet_times.append(p_time)
        columnar_times.append(c_time)

    half = num_queries // 2
    return {
        "num_queries": num_queries,
        "phase_boundary": half,
        "parquet_times": parquet_times,
        "columnar_times": columnar_times,
        "phase1_parquet_total": sum(parquet_times[:half]),
        "phase1_columnar_total": sum(columnar_times[:half]),
        "phase2_parquet_total": sum(parquet_times[half:]),
        "phase2_columnar_total": sum(columnar_times[half:]),
    }


# ---------------------------------------------------------------------------
# Figures 5 and 6: scan time / write latency vs nested-array cardinality
# ---------------------------------------------------------------------------
def figure5_scan_vs_cardinality(
    cardinalities: Sequence[int] = (0, 2, 5, 10, 15, 20),
    num_records: int = 400,
) -> list[dict]:
    """Full-scan time over Parquet and columnar caches as cardinality grows."""
    fields = CARDINALITY_SWEEP_SCHEMA.leaf_paths()
    rows = []
    for cardinality in cardinalities:
        records = cardinality_sweep_records(num_records, cardinality)
        parquet = build_layout("parquet", CARDINALITY_SWEEP_SCHEMA, fields, records=records)
        columnar = build_layout("columnar", CARDINALITY_SWEEP_SCHEMA, fields, records=records)
        p_time, _ = _timed_scan(parquet, fields, None)
        c_time, _ = _timed_scan(columnar, fields, None)
        rows.append(
            {
                "cardinality": cardinality,
                "parquet_scan_s": p_time,
                "columnar_scan_s": c_time,
                "parquet_vs_columnar": p_time / c_time if c_time > 0 else float("inf"),
            }
        )
    return rows


def figure6_write_latency(
    cardinalities: Sequence[int] = (0, 2, 5, 10, 15, 20),
    num_records: int = 400,
) -> list[dict]:
    """Time to build Parquet and columnar caches as cardinality grows."""
    fields = CARDINALITY_SWEEP_SCHEMA.leaf_paths()
    rows = []
    for cardinality in cardinalities:
        records = cardinality_sweep_records(num_records, cardinality)
        started = time.perf_counter()
        build_layout("parquet", CARDINALITY_SWEEP_SCHEMA, fields, records=records)
        parquet_build = time.perf_counter() - started
        started = time.perf_counter()
        build_layout("columnar", CARDINALITY_SWEEP_SCHEMA, fields, records=records)
        columnar_build = time.perf_counter() - started
        rows.append(
            {
                "cardinality": cardinality,
                "parquet_build_s": parquet_build,
                "columnar_build_s": columnar_build,
                "columnar_vs_parquet": columnar_build / parquet_build if parquet_build else 0.0,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 7: cost model prediction error CDF
# ---------------------------------------------------------------------------
def figure7_cost_model_error(num_orders: int = 500, num_queries: int = 80, seed: int = 3) -> dict:
    """Percentage error of the layout cost model's cross-layout predictions."""
    records = synthetic_order_lineitems(num_orders, seed=seed)
    fields = ORDER_LINEITEMS_SCHEMA.leaf_paths()
    parquet: ParquetLayout = build_layout("parquet", ORDER_LINEITEMS_SCHEMA, fields, records=records)
    columnar: ColumnarLayout = build_layout("columnar", ORDER_LINEITEMS_SCHEMA, fields, records=records)
    flattened_rows = columnar.flattened_row_count
    record_count = parquet.record_count
    model = LayoutCostModel()
    queries = _order_lineitems_layout_queries(num_queries, AttributeSchedule.halves(num_queries), seed)

    errors: list[float] = []
    parquet_history: list[LayoutObservation] = []
    for query in queries:
        wanted = query["fields"]
        columns = len(wanted)
        # Measure both layouts for this query.
        p_time, p_rows = _timed_scan(parquet, wanted, query["predicate"])
        c_time, c_rows = _timed_scan(columnar, wanted, query["predicate"])
        p_data, p_compute = split_scan_cost(p_time, p_rows * columns)
        c_data, _ = split_scan_cost(c_time, c_rows * columns)

        parquet_obs = LayoutObservation(
            query_index=query["index"],
            layout_name="parquet",
            data_cost=p_data,
            compute_cost=p_compute,
            rows_accessed=p_rows,
            columns_accessed=columns,
            accessed_nested=query["accesses_nested"],
        )
        parquet_history.append(parquet_obs)

        # Predict the relational cost from the Parquet measurement and vice versa.
        predicted_relational = model.predict_relational_scan_cost(parquet_obs, flattened_rows)
        errors.append(percentage_error(predicted_relational, c_time))

        parquet_rows = flattened_rows if query["accesses_nested"] else record_count
        compute = closest_compute_cost(parquet_history, parquet_rows, columns) or p_compute
        columnar_obs = LayoutObservation(
            query_index=query["index"],
            layout_name="columnar",
            data_cost=c_data,
            compute_cost=0.0,
            rows_accessed=c_rows,
            columns_accessed=columns,
            accessed_nested=query["accesses_nested"],
        )
        predicted_parquet = model.predict_parquet_scan_cost(columnar_obs, parquet_rows, compute)
        errors.append(percentage_error(predicted_parquet, p_time))

    return {
        "errors": errors,
        "fraction_within_10pct": fraction_below(errors, 10.0),
        "fraction_within_30pct": fraction_below(errors, 30.0),
        "fraction_within_50pct": fraction_below(errors, 50.0),
        "median_error": sorted(errors)[len(errors) // 2] if errors else None,
    }


# ---------------------------------------------------------------------------
# Figure 9: automatic layout selection vs the static layouts (full engine)
# ---------------------------------------------------------------------------
_FIG9_SCHEDULES = {
    "halves": AttributeSchedule.halves,
    "alternating": lambda n: AttributeSchedule.alternating(period=max(1, n // 6)),
    "random": lambda n: AttributeSchedule.random_mix(0.5),
}


def figure9_auto_layout(
    pattern: str = "halves",
    num_queries: int = 240,
    num_orders: int = 800,
    seed: int = 3,
) -> dict:
    """Per-query cache-scan time for Parquet, columnar and ReCache auto layout.

    ``pattern`` selects the attribute schedule: ``"halves"`` (Figure 9a),
    ``"alternating"`` (Figure 9b) or ``"random"`` (Figure 9c).

    As in the paper, the caches are populated beforehand so the measurement
    isolates cache-scan performance from cache construction.  The ReCache
    configuration drives the real :class:`~repro.core.layout_selector.LayoutSelector`
    over a real :class:`~repro.core.cache_entry.CacheEntry`, paying the actual
    layout-conversion cost whenever it decides to switch (the spikes of
    Figure 9).
    """
    if pattern not in _FIG9_SCHEDULES:
        raise ValueError(f"unknown pattern {pattern!r}; expected one of {sorted(_FIG9_SCHEDULES)}")
    schedule = _FIG9_SCHEDULES[pattern](num_queries)
    queries = _order_lineitems_layout_queries(num_queries, schedule, seed)

    records = synthetic_order_lineitems(num_orders, seed=seed)
    fields = ORDER_LINEITEMS_SCHEMA.leaf_paths()
    parquet = build_layout("parquet", ORDER_LINEITEMS_SCHEMA, fields, records=records)
    columnar = build_layout("columnar", ORDER_LINEITEMS_SCHEMA, fields, records=records)

    # Static baselines: always scan the same pre-built layout.
    parquet_times = []
    columnar_times = []
    for query in queries:
        p_time, _ = _timed_scan(parquet, query["fields"], query["predicate"])
        c_time, _ = _timed_scan(columnar, query["fields"], query["predicate"])
        parquet_times.append(p_time)
        columnar_times.append(c_time)

    # ReCache: the automatic selector over a pre-populated (Parquet) cache.
    recache_times, switches = _run_auto_layout(records, queries)

    totals = {
        "parquet": sum(parquet_times),
        "columnar": sum(columnar_times),
        "recache": sum(recache_times),
    }
    optimal_total = sum(min(p, c) for p, c in zip(parquet_times, columnar_times))
    return {
        "pattern": pattern,
        "num_queries": num_queries,
        "series": {
            "parquet": parquet_times,
            "columnar": columnar_times,
            "recache": recache_times,
        },
        "totals": totals,
        "optimal_total": optimal_total,
        "recache_layout_switches": switches,
        "closer_than_parquet_pct": closeness_to_optimal(
            totals["recache"], totals["parquet"], optimal_total
        ),
        "closer_than_columnar_pct": closeness_to_optimal(
            totals["recache"], totals["columnar"], optimal_total
        ),
    }


def _run_auto_layout(records, queries) -> tuple[list[float], int]:
    """Drive the real layout selector over a pre-populated cache entry."""
    from repro.core.cache_entry import CacheEntry, CacheKey
    from repro.core.layout_selector import LayoutSelector
    from repro.layouts import convert_layout

    fields = ORDER_LINEITEMS_SCHEMA.leaf_paths()
    layout = build_layout("parquet", ORDER_LINEITEMS_SCHEMA, fields, records=records)
    entry = CacheEntry(
        key=CacheKey.for_select("orderLineitems", None),
        source="orderLineitems",
        source_format="json",
        predicate=None,
        fields=fields,
        layout=layout,
    )
    selector = LayoutSelector()
    times = []
    switches = 0
    for query in queries:
        scan_time, scanned_rows = _timed_scan(entry.layout, query["fields"], query["predicate"])
        columns = len(query["fields"])
        data_cost, compute_cost = split_scan_cost(scan_time, scanned_rows * columns)
        selector.observe(
            entry,
            LayoutObservation(
                query_index=query["index"],
                layout_name=entry.layout_name,
                data_cost=data_cost,
                compute_cost=compute_cost,
                rows_accessed=scanned_rows,
                columns_accessed=columns,
                accessed_nested=query["accesses_nested"],
            ),
        )
        decision = selector.decide(entry)
        if decision.should_switch:
            converted, conversion_time = convert_layout(
                entry.layout, decision.target_layout, ORDER_LINEITEMS_SCHEMA
            )
            entry.replace_layout(converted)
            selector.after_switch(entry)
            scan_time += conversion_time  # the visible "spike" of Figure 9
            switches += 1
        times.append(scan_time)
    return times, switches
