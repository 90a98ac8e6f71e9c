"""The five workloads: seeded inputs, the cache-off oracle and result checking.

Only the engine's public surface is used: ``ReCacheConfig`` defaults (plus
``cache_size_limit`` for the tight workload and ``caching_enabled=False`` for
the oracle), ``QueryEngine.register_csv/register_json/execute`` and the
``repro.workloads`` dataset writers and query generators.

Seeding.  Each workload's query *shapes* (tables, predicate fields, window
widths, aggregates, order) come from the repo's generators under one fixed
template seed, the way TPC-H fixes its query templates; ``--seed`` writes the
dataset and shifts every predicate window, by one offset per (source, field).
A common offset keeps which window contains which, so the sequence of cache
hits, subsumption hits and misses is a property of the workload and not of the
seed, and runs on different seeds measure comparable work over different data.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro import (
    AggregateSpec,
    FieldRef,
    JoinSpec,
    Query,
    QueryEngine,
    RangePredicate,
    ReCacheConfig,
    TableRef,
)
from repro.workloads import (
    SYMANTEC_CSV_SCHEMA,
    SYMANTEC_FIELD_RANGES,
    SYMANTEC_JSON_SCHEMA,
    TPCH_FIELD_RANGES,
    TPCH_SCHEMAS,
    spj_tpch_workload,
    symantec_mixed_workload,
    write_order_lineitems_json,
    write_symantec_dataset,
    write_tpch_dataset,
)
from repro.workloads.tpch import ORDER_LINEITEMS_SCHEMA

#: fixes every workload's query shapes (see the module docstring)
TEMPLATE_SEED = 2017
#: each predicate window moves by at most this share of its field's range
SHIFT_SHARE = 0.05
#: executions of each query that leave a hot cache steady: the first admits
#: (often lazily), the second upgrades lazy entries, the third runs on them
WARM_ROUNDS = 3

HOT_CLASSES = ("select_agg", "groupby", "join", "nested_range", "rows_exit")
#: queries in the served pool, drawn by Zipf(ZIPF_S) rank
ZIPF_POOL = 32
ZIPF_S = 1.1

Ranges = dict[str, dict[str, tuple[float, float]]]


@dataclass
class Inputs:
    """What one set-up generates: registered files and the query sequence."""

    register: Callable[[QueryEngine], None]
    queries: list[Query]
    #: query class per query (the per-class latency split); "" when unused
    classes: list[str]
    #: run twice before a hot cache is warmed (see :func:`warm_engine`)
    primers: tuple[Query, ...] = ()

    def engine(self, config: ReCacheConfig | None = None) -> QueryEngine:
        engine = QueryEngine(config)
        self.register(engine)
        return engine


@dataclass(frozen=True)
class Workload:
    name: str
    #: "cold" (fresh engine per repetition), "hot_direct" or "hot_served"
    kind: str
    why: str
    build: Callable[[Path, int, bool], Inputs]
    #: bytes; ``None`` keeps the default unlimited cache
    cache_size_limit: int | None = None
    smoke_cache_size_limit: int | None = None

    def config(self, smoke: bool) -> ReCacheConfig | None:
        limit = self.smoke_cache_size_limit if smoke else self.cache_size_limit
        return None if limit is None else ReCacheConfig(cache_size_limit=limit)


# ---------------------------------------------------------------------------
# Seeded predicate shift
# ---------------------------------------------------------------------------
def shift_predicates(queries: list[Query], ranges: Ranges, seed: int) -> list[Query]:
    """Move every range window by its (source, field)'s seeded offset."""
    rng = random.Random(seed)
    offsets = {
        (source, name): rng.uniform(-SHIFT_SHARE, SHIFT_SHARE) * (high - low)
        for source in sorted(ranges)
        for name, (low, high) in sorted(ranges[source].items())
    }
    for query in queries:
        for table in query.tables:
            predicate = table.predicate
            offset = offsets[(table.source, predicate.field)]
            table.predicate = RangePredicate(
                predicate.field, predicate.low + offset, predicate.high + offset
            )
    return queries


# ---------------------------------------------------------------------------
# Cold workloads
# ---------------------------------------------------------------------------
def _tpch_spj(directory: Path, seed: int, smoke: bool) -> Inputs:
    scale, count = (0.0002, 10) if smoke else (0.002, 60)
    paths = write_tpch_dataset(directory, scale_factor=scale, seed=seed)

    def register(engine: QueryEngine) -> None:
        for name, path in paths.items():
            engine.register_csv(name, path, TPCH_SCHEMAS[name])

    queries = spj_tpch_workload(count, seed=TEMPLATE_SEED)
    return Inputs(register, shift_predicates(queries, TPCH_FIELD_RANGES, seed), [""] * count)


def _symantec_mixed(directory: Path, seed: int, smoke: bool) -> Inputs:
    json_records, csv_records, count = (100, 300, 20) if smoke else (1000, 3000, 150)
    paths = write_symantec_dataset(directory, json_records, csv_records, seed=seed)

    def register(engine: QueryEngine) -> None:
        engine.register_json("spam_json", paths["spam_json"], SYMANTEC_JSON_SCHEMA)
        engine.register_csv("spam_csv", paths["spam_csv"], SYMANTEC_CSV_SCHEMA)

    queries = symantec_mixed_workload(count, seed=TEMPLATE_SEED)
    return Inputs(register, shift_predicates(queries, SYMANTEC_FIELD_RANGES, seed), [""] * count)


def _tpch_hetero(directory: Path, seed: int, smoke: bool) -> Inputs:
    """Section 6.3's set-up: lineitem as JSON, the other four tables as CSV."""
    scale, count = (0.0002, 10) if smoke else (0.001, 60)
    csv_tables = [name for name in TPCH_SCHEMAS if name != "lineitem"]
    paths = write_tpch_dataset(
        directory, scale_factor=scale, seed=seed, tables=csv_tables, json_tables=["lineitem"]
    )

    def register(engine: QueryEngine) -> None:
        engine.register_json("lineitem_json", paths["lineitem_json"], TPCH_SCHEMAS["lineitem"])
        for name in csv_tables:
            engine.register_csv(name, paths[name], TPCH_SCHEMAS[name])

    renamed = {"lineitem": "lineitem_json"}
    queries = spj_tpch_workload(count, seed=TEMPLATE_SEED, source_names=renamed)
    ranges = {renamed.get(name, name): fields for name, fields in TPCH_FIELD_RANGES.items()}
    return Inputs(register, shift_predicates(queries, ranges, seed), [""] * count)


# ---------------------------------------------------------------------------
# Hot workloads
# ---------------------------------------------------------------------------
def _window(source: str, name: str, low: float, high: float, shrink: float) -> RangePredicate:
    """The [low, high] share of a field's range, narrowed by ``shrink`` per side."""
    bottom, top = TPCH_FIELD_RANGES[source][name]
    inset = (high - low) * shrink
    width = top - bottom
    return RangePredicate(name, bottom + width * (low + inset), bottom + width * (high - inset))


def _hot_query(query_class: str, shrink: float, label: str) -> Query:
    """One query of a class; ``shrink`` > 0 gives a window inside the class's widest."""
    if query_class == "select_agg":
        return Query.select_aggregate(
            "lineitem",
            _window("lineitem", "l_shipdate", 0.2, 0.7, shrink),
            [AggregateSpec("sum", FieldRef("l_extendedprice")), AggregateSpec("avg", FieldRef("l_discount"))],
            label=label,
        )
    if query_class == "groupby":
        return Query(
            tables=[TableRef("lineitem", _window("lineitem", "l_quantity", 0.1, 0.8, shrink))],
            aggregates=[AggregateSpec("sum", FieldRef("l_extendedprice")), AggregateSpec("count", FieldRef("l_orderkey"))],
            group_by=["l_returnflag", "l_linenumber"],
            label=label,
        )
    if query_class == "join":
        return Query(
            tables=[
                TableRef("orders", _window("orders", "o_orderdate", 0.3, 0.6, shrink)),
                TableRef("customer", _window("customer", "c_acctbal", 0.2, 0.9, shrink)),
            ],
            joins=[JoinSpec("orders", "o_custkey", "customer", "c_custkey")],
            aggregates=[AggregateSpec("sum", FieldRef("o_totalprice")), AggregateSpec("max", FieldRef("c_acctbal"))],
            label=label,
        )
    if query_class == "nested_range":
        return Query.select_aggregate(
            "orderLineitems",
            _window("orderLineitems", "lineitems.l_quantity", 0.2, 0.6, shrink),
            [AggregateSpec("avg", FieldRef("lineitems.l_extendedprice")), AggregateSpec("max", FieldRef("o_totalprice"))],
            label=label,
        )
    if query_class == "rows_exit":
        return Query(
            tables=[TableRef("orders", _window("orders", "o_totalprice", 0.4, 0.5, shrink))],
            label=label,
        )
    raise ValueError(f"unknown query class {query_class!r}")


def _hot(directory: Path, seed: int, smoke: bool, pool: int) -> Inputs:
    """TPC-H CSV tables plus the nested orderLineitems JSON, and ``pool`` queries.

    Query ``i`` is of class ``i % 5``; its window lies inside the window of
    query ``i - 5``, so a warm cache serves the first of each class by an
    exact match and the rest by exact or subsumption hits.
    """
    scale = 0.0002 if smoke else 0.002
    tables = ["lineitem", "orders", "customer"]
    paths = write_tpch_dataset(directory, scale_factor=scale, seed=seed, tables=tables)
    nested = write_order_lineitems_json(directory, scale_factor=scale, seed=seed)

    def register(engine: QueryEngine) -> None:
        for name in tables:
            engine.register_csv(name, paths[name], TPCH_SCHEMAS[name])
        engine.register_json("orderLineitems", nested, ORDER_LINEITEMS_SCHEMA)

    classes = [HOT_CLASSES[index % len(HOT_CLASSES)] for index in range(pool)]
    queries = [
        _hot_query(query_class, 0.04 * (index // len(HOT_CLASSES)), f"{query_class}-{index}")
        for index, query_class in enumerate(classes)
    ]
    primer = Query.select_aggregate(
        "orderLineitems",
        _window("orderLineitems", "o_totalprice", 0.0, 0.02, 0.0),
        [AggregateSpec("max", FieldRef("o_totalprice"))],
        label="primer",
    )
    queries = shift_predicates(queries, TPCH_FIELD_RANGES, seed)
    return Inputs(register, queries, classes, primers=(primer,))


def _hot_mix(directory: Path, seed: int, smoke: bool) -> Inputs:
    return _hot(directory, seed, smoke, pool=len(HOT_CLASSES))


def _hot_zipf(directory: Path, seed: int, smoke: bool) -> Inputs:
    inputs = _hot(directory, seed, smoke, pool=ZIPF_POOL)
    inputs.classes = [""] * ZIPF_POOL  # the per-class latency split is hot_mix_direct's
    return inputs


def zipf_ranks(seed: int, client: int, count: int = 1 << 14) -> list[int]:
    """One client's seeded stream of pool ranks, Zipf(ZIPF_S) distributed."""
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(ZIPF_POOL)]
    return random.Random(f"{seed}-{client}").choices(range(ZIPF_POOL), weights, k=count)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "tpch_spj_cold",
            "cold",
            "miss-dominated: fresh engine, unlimited cache, 60 SPJ queries over TPC-H CSV; "
            "CSV parse, layout build and the join do the work, the hot layers little",
            _tpch_spj,
        ),
        Workload(
            "symantec_mixed_cold",
            "cold",
            "heterogeneous input: fresh engine over nested JSON plus CSV; JSON parse, Parquet "
            "striping, nested predicates and layout selection work here and not on TPC-H",
            _symantec_mixed,
        ),
        Workload(
            "tpch_evict_tight",
            "cold",
            "working set exceeds the cache: lineitem as JSON, cache a quarter of the unlimited "
            "footprint, so admission, eviction and re-admission run beside lookups",
            _tpch_hetero,
            # a quarter of the ~5.7 MB (smoke: ~0.16 MB) this sequence caches with no limit
            cache_size_limit=1_400_000,
            smoke_cache_size_limit=40_000,
        ),
        Workload(
            "hot_mix_direct",
            "hot_direct",
            "100% hits, one caller, five query classes round-robin: bypasses formats and layout "
            "build; cache scan, operators and result exit do all the work",
            _hot_mix,
        ),
        Workload(
            "hot_zipf_served",
            "hot_served",
            "the same warm cache behind EngineServer with one closed-loop client per core, Zipf "
            "over 32 queries: adds submit, queue and locks to the hot scans",
            _hot_zipf,
        ),
    )
}


# ---------------------------------------------------------------------------
# Oracle and result checking
# ---------------------------------------------------------------------------
def oracle_results(inputs: Inputs) -> list[list[dict]]:
    """Each query's rows from an engine with caching off, over the same files."""
    oracle = inputs.engine(ReCacheConfig(caching_enabled=False))
    return [oracle.execute(query).results for query in inputs.queries]


def warm_engine(inputs: Inputs, config: ReCacheConfig | None) -> QueryEngine:
    """An engine whose cache holds every query's data in its steady form.

    A source's first admission is decided by timing a sample (Section 5.2),
    and for the nested file the two outcomes end in different layouts: eager
    admission stripes it as Parquet, lazy admission is later upgraded to
    columnar.  The primer makes the file part of the working set first, so
    the measured queries are always admitted eagerly and every run times the
    same layout.
    """
    engine = inputs.engine(config)
    for query in [*inputs.primers, *inputs.primers]:
        engine.execute(query)
    for _ in range(WARM_ROUNDS):
        for query in inputs.queries:
            engine.execute(query)
    return engine


def same_result(actual: list[dict], expected: list[dict]) -> bool:
    """Row sets equal: ints and strings exactly, floats to 1e-9, any row order."""
    if actual == expected:
        return True
    if len(actual) != len(expected):
        return False
    return all(
        _same_row(left, right)
        for left, right in zip(sorted(actual, key=_row_key), sorted(expected, key=_row_key))
    )


def _row_key(row: dict) -> list:
    key = []
    for name in sorted(row):
        value = row[name]
        if value is None:
            key.append((name, 0, 0.0, ""))
        elif isinstance(value, str):
            key.append((name, 2, 0.0, value))
        else:
            key.append((name, 1, float(f"{value:.9g}"), ""))
    return key


def _same_row(left: dict, right: dict) -> bool:
    if left.keys() != right.keys():
        return False
    for name, value in left.items():
        other = right[name]
        if isinstance(value, float) or isinstance(other, float):
            if value is None or other is None or isinstance(value, str) or isinstance(other, str):
                return False
            if not math.isclose(value, other, rel_tol=1e-9, abs_tol=0.0):
                return False
        elif value != other:
            return False
    return True
