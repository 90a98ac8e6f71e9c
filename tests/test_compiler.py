"""Tests for the expression compiler (generated closures match interpretation)."""

from hypothesis import given, strategies as st

from repro.engine.batch import RecordBatch
from repro.engine.compiler import (
    CompiledAggregate,
    compile_aggregates,
    compile_predicate,
    compile_value,
)
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


def _row_strategy():
    return st.fixed_dictionaries(
        {
            "a": st.one_of(st.none(), st.integers(-100, 100)),
            "b": st.one_of(st.none(), st.floats(-100, 100)),
            "c": st.integers(-5, 5),
        }
    )


class TestCompiledPredicates:
    def test_none_predicate_accepts_everything(self):
        assert compile_predicate(None)({"anything": 1})

    @given(_row_strategy())
    def test_range_predicate_matches_interpreter(self, row):
        expr = RangePredicate("a", -50, 50)
        assert compile_predicate(expr)(row) == bool(expr.evaluate(row))

    @given(_row_strategy(), st.integers(-100, 100), st.integers(-100, 100))
    def test_conjunction_matches_interpreter(self, row, low, high):
        expr = And(
            [
                Comparison(">=", FieldRef("c"), Literal(min(low, high) / 50.0)),
                Or([RangePredicate("a", low, max(low, high)), Not(Comparison("==", FieldRef("c"), Literal(0)))]),
            ]
        )
        assert compile_predicate(expr)(row) == bool(expr.evaluate(row))

    def test_arithmetic_value(self):
        expr = Arithmetic("+", Arithmetic("*", FieldRef("a"), Literal(2)), Literal(1))
        assert compile_value(expr)({"a": 3}) == 7


class TestCompiledAggregates:
    def test_all_functions(self):
        rows = [{"x": 1.0}, {"x": 3.0}, {"x": None}, {"x": 2.0}]
        specs = [AggregateSpec(func, FieldRef("x")) for func in ("sum", "avg", "min", "max", "count")]
        aggregates = compile_aggregates(specs)
        for batch in (RecordBatch.from_rows(rows[:1]), RecordBatch.from_rows(rows[1:])):
            for aggregate in aggregates:
                aggregate.update_batch(batch)
        results = {agg.spec.func: agg.result() for agg in aggregates}
        assert results == {"sum": 6.0, "avg": 2.0, "min": 1.0, "max": 3.0, "count": 3}

    def test_empty_input(self):
        aggregate = CompiledAggregate(AggregateSpec("avg", FieldRef("x")))
        assert aggregate.result() is None
        count = CompiledAggregate(AggregateSpec("count", FieldRef("x")))
        assert count.result() == 0

    def test_alias_used_as_output_name(self):
        spec = AggregateSpec("sum", FieldRef("x"), alias="total")
        assert spec.output_name == "total"
