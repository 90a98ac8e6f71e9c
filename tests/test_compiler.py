"""Batch predicates and aggregate inputs agree with ``Expression.evaluate``."""

import pytest
from hypothesis import given, strategies as st

from repro import QueryEngine, ReCacheConfig
from repro.engine.batch import RecordBatch
from repro.engine.compiler import aggregate_values, compile_batch_predicate
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
from repro.engine.operators import aggregate_batches
from repro.engine.query import Query, TableRef
from repro.engine.types import INT, Field, RecordType
from tests.oracle import Oracle, same_rows


def _row_strategy():
    return st.fixed_dictionaries(
        {
            "a": st.one_of(st.none(), st.integers(-100, 100)),
            "b": st.one_of(st.none(), st.floats(-100, 100)),
            "c": st.integers(-5, 5),
        }
    )


def _row_mask(expr, row: dict) -> bool:
    """The batch predicate's verdict on a one-row batch of ``row``."""
    (verdict,) = compile_batch_predicate(expr)(RecordBatch.from_rows([row], ["a", "b", "c"]))
    return bool(verdict)


class TestCompiledPredicates:
    @given(_row_strategy())
    def test_range_predicate_matches_interpreter(self, row):
        expr = RangePredicate("a", -50, 50)
        assert _row_mask(expr, row) == bool(expr.evaluate(row))

    @given(_row_strategy(), st.integers(-100, 100), st.integers(-100, 100))
    def test_conjunction_matches_interpreter(self, row, low, high):
        expr = And(
            [
                Comparison(">=", FieldRef("c"), Literal(min(low, high) / 50.0)),
                Or([RangePredicate("a", low, max(low, high)), Not(Comparison("==", FieldRef("c"), Literal(0)))]),
            ]
        )
        assert _row_mask(expr, row) == bool(expr.evaluate(row))

    def test_arithmetic_value(self):
        # A compound aggregate input evaluates per row; None propagates.
        expr = Arithmetic("+", Arithmetic("*", FieldRef("a"), Literal(2)), Literal(1))
        batch = RecordBatch.from_rows([{"a": 3}, {"a": None}])
        assert aggregate_values(AggregateSpec("sum", expr), batch) == [7, None]


class TestCompiledAggregates:
    FUNCS = ("sum", "avg", "min", "max", "count")

    def _global(self, batches, expr=None):
        specs = [AggregateSpec(func, expr or FieldRef("x")) for func in self.FUNCS]
        (row,) = aggregate_batches(batches, specs).to_rows()
        return dict(zip(self.FUNCS, row.values()))

    def test_all_functions(self):
        rows = [{"x": 1.0}, {"x": 3.0}, {"x": None}, {"x": 2.0}]
        batches = [RecordBatch.from_rows(rows[:1]), RecordBatch.from_rows(rows[1:])]
        assert self._global(batches) == {
            "sum": 6.0, "avg": 2.0, "min": 1.0, "max": 3.0, "count": 3
        }
        # A compound expression goes through the per-row evaluator.
        plain = [RecordBatch.from_rows([row]) for row in rows if row["x"] is not None]
        doubled = self._global(plain, Arithmetic("*", FieldRef("x"), Literal(2)))
        assert doubled == {"sum": 12.0, "avg": 4.0, "min": 2.0, "max": 6.0, "count": 3}

    def test_empty_input(self):
        expected = {"sum": 0.0, "avg": None, "min": None, "max": None, "count": 0}
        assert self._global([]) == expected
        assert self._global([RecordBatch.from_rows([{"x": None}])]) == expected

    def test_alias_used_as_output_name(self):
        spec = AggregateSpec("sum", FieldRef("x"), alias="total")
        assert spec.output_name == "total"


@pytest.mark.parametrize("group_by", [[], ["g"]], ids=["global", "grouped"])
def test_aggregate_over_arithmetic_skips_null_rows(tmp_path, group_by):
    """``sum(a * 2)`` over a = 3, null, 5: the null row's value is null and
    the reducer drops it, cold and warm, as the oracle does."""
    path = tmp_path / "t.csv"
    path.write_text("1|3\n1|\n2|5\n", encoding="utf-8")
    engine = QueryEngine(ReCacheConfig())
    engine.register_csv("t", path, RecordType([Field("g", INT), Field("a", INT)]))
    spec = AggregateSpec("sum", Arithmetic("*", FieldRef("a"), Literal(2)), alias="s")
    query = Query(tables=[TableRef("t")], aggregates=[spec], group_by=group_by)
    expected = [{"s": 16.0}] if not group_by else [{"g": 1, "s": 6.0}, {"g": 2, "s": 10.0}]
    assert same_rows(Oracle(engine.catalog).evaluate(query), expected)
    for _ in range(2):
        assert same_rows(engine.execute(query).results, expected)
