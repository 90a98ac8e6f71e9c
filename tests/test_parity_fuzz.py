"""Differential parity fuzzing: the engine vs the reference oracle.

Seeded random queries — range/comparison/arithmetic predicates (strings,
division, null-heavy columns included), varying projections, equi-joins and
grouped aggregates — run against engines pinned to each of the two cache
layouts and must return exactly what ``tests/oracle.py`` computes from the raw
files (no cache, no layouts, no compiler).  Every seeded query additionally
runs with ``result_format="columnar"`` on a second identically-configured
engine, asserting that ``to_rows()`` reproduces the row output bit for bit
with identical per-query report counters and end-state cache counters, and a
join-heavy class stresses the factorized hash-join probe (numeric and string
keys, null keys, rows-heavy plain-select joins) the same way.

A nested-heavy class drives the nested-predicate vectorizer specifically:
every seeded predicate references a striped leaf path (closed ranges,
exists-style whole-domain ranges, equality and validity-masked ``!=``), on
both layouts.

The default (CI) run executes a fixed-seed subset of ``PARITY_FUZZ_QUERIES``
queries per layout (150 x 2 = 300 total for the main class, above the
>= 200-query acceptance bar) plus ``PARITY_FUZZ_JOIN_QUERIES`` (100)
join-heavy queries on the one flat layout and ``PARITY_FUZZ_NESTED_QUERIES``
nested-heavy queries per layout (150 x 2 = 300); set the ``RECACHE_PARITY_FUZZ_QUERIES``
/ ``RECACHE_PARITY_FUZZ_JOIN_QUERIES`` /
``RECACHE_PARITY_FUZZ_NESTED_QUERIES`` environment variables to fuzz harder
in a nightly/full run (only those runs should raise the counts — CI stays
at the defaults).
"""

from __future__ import annotations

import dataclasses
import os
import random

import pytest

from repro import ColumnarResult, Query, QueryEngine, ReCacheConfig
from repro.engine.expressions import (
    AggregateSpec,
    And,
    Arithmetic,
    Comparison,
    FieldRef,
    Literal,
    Not,
    Or,
    RangePredicate,
)
from repro.engine.query import JoinSpec, TableRef
from repro.engine.types import FLOAT, INT, STRING, Field, ListType, RecordType
from repro.formats import write_csv, write_json_lines
from repro.workloads.nested import synthetic_order_lineitems
from repro.workloads.tpch import ORDER_LINEITEMS_SCHEMA
from tests.oracle import Oracle, same_rows
from tests.test_batch_execution import _cache_counters, _report_counters
from tests.test_layout_conversion import TWO_LISTS, two_list_records
from tests.test_striping_properties import random_record, random_schema

PARITY_FUZZ_QUERIES = int(os.environ.get("RECACHE_PARITY_FUZZ_QUERIES", "150"))
PARITY_FUZZ_JOIN_QUERIES = int(
    os.environ.get(
        "RECACHE_PARITY_FUZZ_JOIN_QUERIES", str(max(10, PARITY_FUZZ_QUERIES * 2 // 3))
    )
)
PARITY_FUZZ_NESTED_QUERIES = int(
    os.environ.get("RECACHE_PARITY_FUZZ_NESTED_QUERIES", str(PARITY_FUZZ_QUERIES))
)
FUZZ_SEED = 20260729

EVENTS_SCHEMA = RecordType(
    [
        Field("id", INT),
        Field("value", FLOAT),
        Field("score", FLOAT),  # null-heavy
        Field("ratio", FLOAT),  # never zero nor null: safe division operand
        Field("bucket", INT),
        Field("name", STRING),  # occasionally null
    ]
)
DIMS_SCHEMA = RecordType(
    [Field("key", INT), Field("label", STRING), Field("weight", FLOAT)]
)

EVENT_RANGES = {"id": (0.0, 400.0), "value": (-50.0, 50.0), "score": (0.0, 10.0),
                "ratio": (0.5, 2.0), "bucket": (0.0, 8.0)}
ORDER_RANGES = {
    "o_orderkey": (1.0, 120.0),
    "o_custkey": (1.0, 2000.0),
    "o_totalprice": (900.0, 500000.0),
    "o_orderdate": (8000.0, 10600.0),
    "o_shippriority": (0.0, 1.0),
    "lineitems.l_quantity": (1.0, 50.0),
    "lineitems.l_extendedprice": (900.0, 105000.0),
    "lineitems.l_suppkey": (1.0, 1000.0),
}
NAMES = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]


def _event_rows(count: int, rng: random.Random) -> list[dict]:
    rows = []
    for i in range(count):
        rows.append(
            {
                "id": i,
                "value": round(rng.uniform(-50.0, 50.0), 3),
                "score": None if rng.random() < 0.4 else round(rng.uniform(0.0, 10.0), 2),
                "ratio": round(rng.uniform(0.5, 2.0), 3),
                "bucket": rng.randint(0, 8),
                "name": None if rng.random() < 0.15 else rng.choice(NAMES),
            }
        )
    return rows


def _dim_rows(rng: random.Random) -> list[dict]:
    return [
        {"key": key, "label": rng.choice(NAMES), "weight": round(rng.uniform(0.0, 5.0), 3)}
        for key in range(9)
        for _ in range(rng.randint(1, 3))
    ]


@pytest.fixture(scope="module")
def fuzz_dataset_dir(tmp_path_factory):
    rng = random.Random(FUZZ_SEED)
    directory = tmp_path_factory.mktemp("parity-fuzz")
    write_csv(directory / "events.csv", EVENTS_SCHEMA, _event_rows(400, rng))
    write_csv(directory / "dims.csv", DIMS_SCHEMA, _dim_rows(rng))
    write_json_lines(directory / "orders.json", synthetic_order_lineitems(120, seed=FUZZ_SEED))
    return directory


LAYOUT_CONFIGS = {
    "columnar": {"default_nested_layout": "columnar"},
    "parquet": {"default_nested_layout": "parquet"},
}


def _build_engine(directory, layout_overrides: dict) -> QueryEngine:
    config = ReCacheConfig(
        admission="eager",  # deterministic admission
        layout_selection=False,  # keep the pinned layout throughout
        admission_sample_records=40,
        **layout_overrides,
    )
    engine = QueryEngine(config)
    engine.register_csv("events", directory / "events.csv", EVENTS_SCHEMA)
    engine.register_csv("dims", directory / "dims.csv", DIMS_SCHEMA)
    engine.register_json("orders", directory / "orders.json", ORDER_LINEITEMS_SCHEMA)
    return engine


# ---------------------------------------------------------------------------
# Random query generation
# ---------------------------------------------------------------------------
def _random_range(rng: random.Random, field: str, ranges: dict) -> RangePredicate:
    low, high = ranges[field]
    a, b = rng.uniform(low, high), rng.uniform(low, high)
    if a > b:
        a, b = b, a
    return RangePredicate(field, round(a, 3), round(b, 3))


def _random_leaf(rng: random.Random, ranges: dict, string_fields: list[str]):
    kind = rng.random()
    numeric = rng.choice(sorted(ranges))
    low, high = ranges[numeric]
    if kind < 0.45:
        return _random_range(rng, numeric, ranges)
    if kind < 0.65:
        op = rng.choice(["<", "<=", ">", ">=", "=="])
        return Comparison(op, FieldRef(numeric), Literal(round(rng.uniform(low, high), 2)))
    if kind < 0.8 and string_fields:
        field = rng.choice(string_fields)
        op = rng.choice(["==", "<", ">", "<="])
        return Comparison(op, FieldRef(field), Literal(rng.choice(NAMES)))
    if kind < 0.9:
        # Division: always takes the compiled per-row fallback
        # (NumPy would silently change ZeroDivisionError semantics).
        divisor = Literal(rng.choice([2.0, 3.0, 7.5])) if rng.random() < 0.5 else FieldRef("ratio")
        if "ratio" not in ranges and not isinstance(divisor, Literal):
            divisor = Literal(3.0)
        expr = Arithmetic("/", FieldRef(numeric), divisor)
        return Comparison(rng.choice(["<", ">="]), expr, Literal(round(rng.uniform(low, high) / 2, 2)))
    other = rng.choice(sorted(ranges))
    expr = Arithmetic(rng.choice(["+", "-", "*"]), FieldRef(numeric), FieldRef(other))
    return Comparison(rng.choice(["<", ">"]), expr, Literal(round(rng.uniform(low * 2, high * 2), 2)))


def _random_predicate(rng: random.Random, ranges: dict, string_fields: list[str]):
    roll = rng.random()
    if roll < 0.35:
        return _random_leaf(rng, ranges, string_fields)
    if roll < 0.6:
        return And([_random_leaf(rng, ranges, string_fields) for _ in range(2)])
    if roll < 0.8:
        return Or([_random_leaf(rng, ranges, string_fields) for _ in range(2)])
    if roll < 0.9:
        return Not(_random_leaf(rng, ranges, string_fields))
    return And([_random_range(rng, rng.choice(sorted(ranges)), ranges),
                Or([_random_leaf(rng, ranges, string_fields) for _ in range(2)])])


def _random_aggregates(rng: random.Random, numeric_fields: list[str], string_fields: list[str]):
    aggregates = []
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.15 and string_fields:
            aggregates.append(
                AggregateSpec(rng.choice(["min", "max", "count"]), FieldRef(rng.choice(string_fields)))
            )
        else:
            func = rng.choice(["sum", "avg", "count", "min", "max"])
            aggregates.append(AggregateSpec(func, FieldRef(rng.choice(numeric_fields))))
    return aggregates


def _random_query(rng: random.Random, index: int) -> Query:
    roll = rng.random()
    if roll < 0.45:  # flat CSV (null-heavy + strings + division)
        predicate = _random_predicate(rng, EVENT_RANGES, ["name"])
        numeric = sorted(EVENT_RANGES)
        if rng.random() < 0.2:  # plain select-project, no aggregation
            return Query(tables=[TableRef("events", predicate)], label=f"fuzz-select-{index}")
        group_by = []
        if rng.random() < 0.45:
            group_by = rng.sample(["bucket", "name"], rng.randint(1, 2))
        return Query(
            tables=[TableRef("events", predicate)],
            aggregates=_random_aggregates(rng, numeric, ["name"]),
            group_by=group_by,
            label=f"fuzz-events-{index}",
        )
    if roll < 0.75:  # nested JSON: mixes flat-only and nested-touching queries
        flat_only = rng.random() < 0.5
        ranges = {k: v for k, v in ORDER_RANGES.items() if flat_only is False or "." not in k}
        predicate = _random_predicate(rng, ranges, [])
        numeric = sorted(ranges)
        group_by = [rng.choice(["o_shippriority", "o_orderdate"])] if rng.random() < 0.4 else []
        return Query(
            tables=[TableRef("orders", predicate)],
            aggregates=_random_aggregates(rng, numeric, []),
            group_by=group_by,
            label=f"fuzz-orders-{index}",
        )
    # equi-join events.bucket = dims.key with per-table predicates
    left = _random_predicate(rng, EVENT_RANGES, ["name"]) if rng.random() < 0.8 else None
    right = _random_range(rng, "weight", {"weight": (0.0, 5.0)}) if rng.random() < 0.6 else None
    aggregates = _random_aggregates(rng, ["value", "id", "weight"], ["label"])
    group_by = ["bucket"] if rng.random() < 0.3 else []
    return Query(
        tables=[TableRef("events", left), TableRef("dims", right)],
        joins=[JoinSpec("events", "bucket", "dims", "key")],
        aggregates=aggregates,
        group_by=group_by,
        label=f"fuzz-join-{index}",
    )


NESTED_ORDER_FIELDS = sorted(k for k in ORDER_RANGES if "." in k)
FLAT_ORDER_FIELDS = sorted(k for k in ORDER_RANGES if "." not in k)


def _random_nested_leaf(rng: random.Random):
    """A predicate leaf over a nested (striped) path of the orders table."""
    field = rng.choice(NESTED_ORDER_FIELDS)
    low, high = ORDER_RANGES[field]
    roll = rng.random()
    if roll < 0.35:  # closed range — the striped range-filter fast path
        return _random_range(rng, field, ORDER_RANGES)
    if roll < 0.5:
        # Exists-style: a range covering the whole domain, true exactly for
        # records with at least one non-NULL entry on the path.
        return RangePredicate(field, low - 1.0, high + 1.0)
    if roll < 0.7:
        op = rng.choice(["<", "<=", ">", ">="])
        return Comparison(op, FieldRef(field), Literal(round(rng.uniform(low, high), 2)))
    # Integer-valued literals so equality (and its validity-masked negation)
    # actually hits entries instead of always missing on float dust.
    literal = Literal(float(int(rng.uniform(low, high))))
    return Comparison(rng.choice(["==", "!="]), FieldRef(field), literal)


def _random_nested_query(rng: random.Random, index: int) -> Query:
    """A nested-heavy orders query: every predicate touches a striped path.

    Stresses the nested-predicate vectorizer end to end — entry-granular
    masks over striped value/definition arrays, the ``reduceat`` entry->record
    reduction, validity-masked ``!=``, and the mixed nested+flat conjunctions
    that must agree with the oracle on every layout.
    """
    roll = rng.random()
    if roll < 0.4:
        predicate = _random_nested_leaf(rng)
    elif roll < 0.6:  # nested AND nested-or-flat
        other = (
            _random_nested_leaf(rng)
            if rng.random() < 0.5
            else _random_range(rng, rng.choice(FLAT_ORDER_FIELDS), ORDER_RANGES)
        )
        predicate = And([_random_nested_leaf(rng), other])
    elif roll < 0.8:
        other = (
            _random_nested_leaf(rng)
            if rng.random() < 0.5
            else _random_range(rng, rng.choice(FLAT_ORDER_FIELDS), ORDER_RANGES)
        )
        predicate = Or([_random_nested_leaf(rng), other])
    else:
        predicate = Not(_random_nested_leaf(rng))
    if rng.random() < 0.25:  # plain select-project over flattened rows
        return Query(tables=[TableRef("orders", predicate)], label=f"fuzz-nested-select-{index}")
    numeric = NESTED_ORDER_FIELDS + FLAT_ORDER_FIELDS
    group_by = [rng.choice(["o_shippriority", "o_orderdate"])] if rng.random() < 0.35 else []
    return Query(
        tables=[TableRef("orders", predicate)],
        aggregates=_random_aggregates(rng, numeric, []),
        group_by=group_by,
        label=f"fuzz-nested-{index}",
    )


def _random_join_query(rng: random.Random, index: int) -> Query:
    """A join-heavy query: every query joins ``events`` with ``dims``.

    Exercises both probe paths of the factorized hash join — the numeric
    ``bucket = key`` equi-join (searchsorted probe) and the nullable string
    ``name = label`` equi-join (dict-pass probe) — plus rows-heavy plain
    select-project joins where the whole merged row set reaches the pipeline
    exit (the columnar-result sweet spot).
    """
    left = _random_predicate(rng, EVENT_RANGES, ["name"]) if rng.random() < 0.8 else None
    right = _random_range(rng, "weight", {"weight": (0.0, 5.0)}) if rng.random() < 0.5 else None
    if rng.random() < 0.3:
        # String keys: ~15% of events have a null name, every label is set.
        join = JoinSpec("events", "name", "dims", "label")
    else:
        join = JoinSpec("events", "bucket", "dims", "key")
    tables = [TableRef("events", left), TableRef("dims", right)]
    if rng.random() < 0.4:  # plain select-project join, no aggregation
        return Query(tables=tables, joins=[join], label=f"fuzz-join-select-{index}")
    aggregates = _random_aggregates(rng, ["value", "id", "weight"], ["label", "name"])
    group_by = []
    if rng.random() < 0.35:
        group_by = [rng.choice(["bucket", "label"])]
    return Query(
        tables=tables,
        joins=[join],
        aggregates=aggregates,
        group_by=group_by,
        label=f"fuzz-join-heavy-{index}",
    )


# ---------------------------------------------------------------------------
# The harness
# ---------------------------------------------------------------------------
def _layout_seed_offset(layout: str) -> int:
    """A deterministic per-layout seed offset (``hash()`` is randomized)."""
    return sorted(LAYOUT_CONFIGS).index(layout) + 1


def _run_oracle_parity(fuzz_dataset_dir, layout, make_query, count, seed_offset=0):
    """The shared differential loop.

    ``rows`` vs the oracle is the correctness check: the oracle shares no
    code with the engine below ``Expression.evaluate``.  ``columnar`` is a
    second identically-configured engine whose every query runs with
    ``result_format="columnar"`` and must reproduce the row output bit for
    bit via ``to_rows()`` while reporting the same counters — proving the
    exit format changes the representation only.
    """
    rng = random.Random(FUZZ_SEED + _layout_seed_offset(layout) + seed_offset)
    rows = _build_engine(fuzz_dataset_dir, LAYOUT_CONFIGS[layout])
    columnar = _build_engine(fuzz_dataset_dir, LAYOUT_CONFIGS[layout])
    oracle = Oracle(rows.catalog)
    for index in range(count):
        query = make_query(rng, index)
        rows_report = rows.execute(query)
        columnar_report = columnar.execute(dataclasses.replace(query, result_format="columnar"))
        assert same_rows(rows_report.results, oracle.evaluate(query)), (
            f"[{layout}] result differs from the oracle on query #{index} ({query.label}): "
            f"{query.signature()}"
        )
        assert isinstance(columnar_report.results, ColumnarResult), query.label
        assert columnar_report.results.to_rows() == rows_report.results, (
            f"[{layout}] columnar-result mismatch on query #{index} ({query.label}): "
            f"{query.signature()}"
        )
        assert _report_counters(columnar_report) == _report_counters(rows_report), (
            f"[{layout}] columnar report mismatch on query #{index} ({query.label})"
        )
    assert _cache_counters(columnar) == _cache_counters(rows)


@pytest.mark.parametrize("layout", sorted(LAYOUT_CONFIGS))
def test_parity_fuzz(fuzz_dataset_dir, layout):
    """Rows and columnar-result execution agree with the oracle on a seeded
    random workload."""
    _run_oracle_parity(fuzz_dataset_dir, layout, _random_query, PARITY_FUZZ_QUERIES)


@pytest.mark.parametrize("layout", ["columnar"])
def test_parity_fuzz_join_heavy(fuzz_dataset_dir, layout):
    """The factorized hash-join probe agrees with the oracle's dict join (and
    its columnar exit with the rows exit) on a join-only seeded workload.

    Joins here run between the two flat CSV sources, which are always cached
    in the relational columnar layout (the nested default never participates).
    """
    _run_oracle_parity(
        fuzz_dataset_dir,
        layout,
        _random_join_query,
        PARITY_FUZZ_JOIN_QUERIES,
        seed_offset=101,
    )


@pytest.mark.parametrize("layout", sorted(LAYOUT_CONFIGS))
def test_parity_fuzz_nested_heavy(fuzz_dataset_dir, layout):
    """The nested-predicate vectorizer agrees with the oracle's per-row
    evaluation (and its columnar exit with the rows exit) on a nested-only workload.

    Every seeded predicate references a striped leaf path, so every layout
    exercises its nested plan: the parquet striped-view fast path and
    entry-granular range filter, and the columnar flattened scan —
    ``PARITY_FUZZ_NESTED_QUERIES`` queries per layout.
    """
    _run_oracle_parity(
        fuzz_dataset_dir,
        layout,
        _random_nested_query,
        PARITY_FUZZ_NESTED_QUERIES,
        seed_offset=202,
    )


def test_nested_fuzz_workload_exercises_the_vectorizer_paths():
    """The nested-heavy seed hits every vectorizer shape it exists for."""
    rng = random.Random(FUZZ_SEED + _layout_seed_offset("parquet") + 202)
    queries = [_random_nested_query(rng, i) for i in range(PARITY_FUZZ_NESTED_QUERIES)]

    def leaves(predicate):
        stack, out = [predicate], []
        while stack:
            node = stack.pop()
            children = list(getattr(node, "children", ()))
            child = getattr(node, "child", None)
            if child is not None:
                children.append(child)
            if children:
                stack.extend(children)
            else:
                out.append(node)
        return out

    all_leaves = [
        leaf
        for query in queries
        for table in query.tables
        if table.predicate is not None
        for leaf in leaves(table.predicate)
    ]
    assert all(
        any("." in f for f in query.tables[0].predicate.referenced_fields())
        for query in queries
    ), "a nested-heavy query without a nested path"
    closed = [
        leaf
        for leaf in all_leaves
        if isinstance(leaf, RangePredicate) and "." in leaf.field
    ]
    assert closed, "no nested range predicate"
    assert any(
        leaf.low <= ORDER_RANGES[leaf.field][0] and leaf.high >= ORDER_RANGES[leaf.field][1]
        for leaf in closed
    ), "no exists-style whole-domain range"
    ops = {
        leaf.op
        for leaf in all_leaves
        if isinstance(leaf, Comparison)
        and any("." in f for f in leaf.referenced_fields())
    }
    assert "==" in ops, "no nested equality"
    assert "!=" in ops, "no nested inequality (validity-masked vectorization)"
    assert any(
        isinstance(query.tables[0].predicate, And)
        and any("." not in f for f in query.tables[0].predicate.referenced_fields())
        for query in queries
    ), "no mixed nested+flat conjunction"
    assert any(not query.aggregates for query in queries), "no plain nested select"
    assert any(query.group_by for query in queries), "no grouped nested aggregate"


def test_fuzz_workload_exercises_the_interesting_shapes(fuzz_dataset_dir):
    """The fixed seed actually generates the shapes the harness exists for."""
    rng = random.Random(FUZZ_SEED + _layout_seed_offset("parquet"))
    queries = [_random_query(rng, index) for index in range(PARITY_FUZZ_QUERIES)]

    def predicates():
        for query in queries:
            for table in query.tables:
                if table.predicate is not None:
                    yield query, table.predicate

    def walk(expr):
        yield expr
        for attr in ("children",):
            for child in getattr(expr, attr, ()):
                yield from walk(child)
        for attr in ("child", "left", "right"):
            child = getattr(expr, attr, None)
            if child is not None and not isinstance(child, str):
                yield from walk(child)

    nodes = [node for _, predicate in predicates() for node in walk(predicate)]
    assert any(isinstance(n, Arithmetic) and n.op == "/" for n in nodes), "no division predicate"
    assert any(
        isinstance(n, Comparison)
        and any(isinstance(side, Literal) and isinstance(side.value, str) for side in (n.left, n.right))
        for n in nodes
    ), "no string comparison"
    assert any(isinstance(n, FieldRef) and n.path == "score" for n in nodes), "no null-heavy column"
    assert any(query.group_by for query in queries), "no grouped aggregates"
    assert any(query.joins for query in queries), "no joins"
    assert any(not query.aggregates for query in queries), "no plain select-project queries"
    assert any("." in field for query in queries for field in _query_fields(query)), (
        "no nested-attribute query"
    )


def test_join_fuzz_workload_exercises_both_probe_paths():
    """The join-heavy seed hits the searchsorted AND dict probe paths."""
    rng = random.Random(FUZZ_SEED + _layout_seed_offset("columnar") + 101)
    queries = [_random_join_query(rng, index) for index in range(PARITY_FUZZ_JOIN_QUERIES)]
    key_pairs = {(q.joins[0].left_key, q.joins[0].right_key) for q in queries}
    assert ("bucket", "key") in key_pairs, "no numeric-key join (vectorized probe)"
    assert ("name", "label") in key_pairs, "no string-key join (dict probe, null keys)"
    assert any(not query.aggregates for query in queries), "no rows-heavy select join"
    assert any(query.group_by for query in queries), "no grouped join aggregate"
    assert any(query.tables[0].predicate is None for query in queries), "no full-scan side"


def _query_fields(query: Query) -> set[str]:
    fields: set[str] = set(query.group_by)
    for table in query.tables:
        if table.predicate is not None:
            fields |= table.predicate.referenced_fields()
    for aggregate in query.aggregates:
        fields |= aggregate.expr.referenced_fields()
    return fields


# ---------------------------------------------------------------------------
# Nested data over two or more lists: every cache path answers like the miss
# ---------------------------------------------------------------------------
def _two_list_queries() -> list[Query]:
    """``count(a)``/``sum(a)`` over ``a`` in [10, 30], ``count(a)`` over [5, 40], ``count(id)``."""
    narrow, wide = RangePredicate("a", 10, 30), RangePredicate("a", 5, 40)
    return [
        Query.select_aggregate("two", narrow, [AggregateSpec("count", FieldRef("a"))]),
        Query.select_aggregate("two", narrow, [AggregateSpec("sum", FieldRef("a"))]),
        Query.select_aggregate("two", wide, [AggregateSpec("count", FieldRef("a"))]),
        Query.select_aggregate("two", None, [AggregateSpec("count", FieldRef("id"))]),
    ]


@pytest.mark.parametrize(
    "config",
    [ReCacheConfig(admission="eager", layout_selection=False), ReCacheConfig()],
    ids=["eager-parquet", "default"],
)
def test_two_list_nested_pin_answers_like_caching_off(tmp_path, config):
    """A Parquet hit over one of two lists still multiplies by the other."""
    write_json_lines(tmp_path / "two.json", two_list_records())
    queries = _two_list_queries()

    def engine(config: ReCacheConfig) -> QueryEngine:
        engine = QueryEngine(config)
        engine.register_json("two", tmp_path / "two.json", TWO_LISTS)
        return engine

    uncached = engine(ReCacheConfig(caching_enabled=False))
    expected = [uncached.execute(query).results for query in queries]
    assert [value for (row,) in expected for value in row.values()] == [556, 11022.0, 932, 300]
    oracle = Oracle(uncached.catalog)
    assert all(same_rows(rows, oracle.evaluate(q)) for rows, q in zip(expected, queries))
    cached = engine(config)
    for _ in range(2):
        for query, rows in zip(queries, expected):
            assert same_rows(cached.execute(query).results, rows), query.signature()
    assert cached.recache.stats.hits > 0


def _multi_list_schema(rng: random.Random) -> RecordType:
    """A random schema with at least two lists, one holding a numeric leaf."""
    while True:
        schema = random_schema(rng)
        lists = [f for f in schema.fields if isinstance(f.dtype, ListType)]
        if len(lists) >= 2 and _numeric_leaves(schema, nested=True):
            return schema


def _numeric_leaves(schema: RecordType, nested: bool | None = None) -> list[str]:
    return [
        path
        for path, atom in schema.leaf_items()
        if atom in (INT, FLOAT) and nested in (None, schema.is_nested_path(path))
    ]


def _range_pair(rng: random.Random, atom) -> tuple[tuple[float, float], tuple[float, float]]:
    """A closed range and a wider one covering it, over ``random_record``'s values."""
    bound = 1000 if atom is INT else 100
    low, high = sorted(rng.uniform(-bound, bound) for _ in range(2))
    return (round(low), round(high)), (round(low) - rng.randint(1, bound // 4), round(high))


def _multi_list_queries(rng: random.Random, schema: RecordType) -> tuple[Query, Query]:
    """A query and a wider one over the same range field (subsumption donor)."""
    atoms = dict(schema.leaf_items())
    field = rng.choice(_numeric_leaves(schema, nested=True if rng.random() < 0.7 else None))
    narrow, wide = _range_pair(rng, atoms[field])
    measured = rng.choice(_numeric_leaves(schema))
    roll = rng.random()
    if roll < 0.5:
        aggregates = [AggregateSpec("count", FieldRef(measured)), AggregateSpec("sum", FieldRef(measured))]
        group_by = []
    elif roll < 0.8:
        aggregates = [AggregateSpec("count", FieldRef(measured))]
        group_by = [rng.choice(schema.leaf_paths())]
    else:  # rows of the range field only
        aggregates, group_by = [], []

    def query(bounds):
        return Query(
            tables=[TableRef("multi", RangePredicate(field, *bounds))],
            aggregates=aggregates,
            group_by=group_by,
            label=f"multi-{field}",
        )

    return query(narrow), query(wide)


class _SwitchToColumnar:
    """A layout selector that converts every Parquet entry on its next reuse."""

    def __init__(self, selector) -> None:
        self._selector = selector

    def __getattr__(self, name):
        return getattr(self._selector, name)

    def decide(self, entry):
        from repro.core.layout_selector import LayoutDecision

        return LayoutDecision("columnar" if entry.layout.layout_name == "parquet" else None, None)


@pytest.mark.parametrize("seed", range(20))
def test_multi_list_nested_transparency_property(tmp_path, seed):
    """Over two or more lists, five paths agree with the oracle: the miss, an
    exact hit on each layout, a subsumption hit on each layout, and a hit on a
    Parquet entry converted to columnar."""
    rng = random.Random(9000 + seed)
    schema = _multi_list_schema(rng)
    records = [random_record(rng, schema) for _ in range(rng.randint(5, 40))]
    write_json_lines(tmp_path / "multi.json", records)

    def engine(layout: str, layout_selection: bool = False) -> QueryEngine:
        config = ReCacheConfig(
            admission="eager", default_nested_layout=layout, layout_selection=layout_selection
        )
        engine = QueryEngine(config)
        engine.register_json("multi", tmp_path / "multi.json", schema)
        return engine

    oracle = Oracle(engine("parquet").catalog)
    for _ in range(3):
        query, wider = _multi_list_queries(rng, schema)
        expected = oracle.evaluate(query)
        reports = {}
        for layout in ("parquet", "columnar"):
            exact = engine(layout)
            reports[f"miss ({layout})"] = exact.execute(query)
            reports[f"exact {layout} hit"] = exact.execute(query)
            subsumed = engine(layout)
            subsumed.execute(wider)
            reports[f"subsumption {layout} hit"] = subsumed.execute(query)

        converted = engine("parquet", layout_selection=True)
        converted.recache.layout_selector = _SwitchToColumnar(converted.recache.layout_selector)
        converted.execute(query)
        converted.execute(query)  # the Parquet hit whose reuse converts the entry
        assert converted.recache.stats.layout_switches == 1
        (entry,) = converted.recache.entries()
        assert entry.layout.layout_name == "columnar"
        reports["converted Parquet -> columnar hit"] = converted.execute(query)

        for path, report in reports.items():
            kind = path.split()[0]
            assert (report.misses, report.exact_hits, report.subsumption_hits) == {
                "miss": (1, 0, 0), "subsumption": (0, 0, 1),
            }.get(kind, (0, 1, 0)), path
            assert same_rows(report.results, expected), f"{path}: {query.signature()}"
