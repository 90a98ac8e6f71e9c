"""Tests for the expression compiler (generated closures match interpretation)."""

from hypothesis import given, strategies as st

from repro.engine.batch import RecordBatch
from repro.engine.compiler import compile_aggregates, compile_predicate, compile_value
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
    FUNCS = ("sum", "avg", "min", "max", "count")

    def _global(self, batches, expr=None):
        specs = [AggregateSpec(func, expr or FieldRef("x")) for func in self.FUNCS]
        (row,) = aggregate_batches(batches, compile_aggregates(specs)).to_rows()
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
