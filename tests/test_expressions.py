"""Unit and property tests for the expression language and subsumption rules."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.engine.expressions import (
    AggregateSpec,
    And,
    Arithmetic,
    Comparison,
    FieldRef,
    Interval,
    Literal,
    Not,
    Or,
    RangePredicate,
    conjuncts,
    extract_ranges,
    predicate_subsumes,
    referenced_fields,
)


class TestEvaluation:
    def test_field_ref_flat_and_nested(self):
        assert FieldRef("a").evaluate({"a": 3}) == 3
        assert FieldRef("a.b").evaluate({"a": {"b": 5}}) == 5
        with pytest.raises(KeyError):
            FieldRef("missing").evaluate({"a": 1})

    def test_comparison_and_null_semantics(self):
        cmp = Comparison("<", FieldRef("x"), Literal(10))
        assert cmp.evaluate({"x": 5})
        assert not cmp.evaluate({"x": 15})
        assert not cmp.evaluate({"x": None})

    def test_boolean_connectives(self):
        expr = And([Comparison(">", FieldRef("x"), Literal(0)), Comparison("<", FieldRef("x"), Literal(10))])
        assert expr.evaluate({"x": 5})
        assert not expr.evaluate({"x": 20})
        assert Or([Comparison("==", FieldRef("x"), Literal(1)), Literal(False)]).evaluate({"x": 1})
        assert Not(Comparison("==", FieldRef("x"), Literal(1))).evaluate({"x": 2})

    def test_arithmetic(self):
        expr = Arithmetic("*", FieldRef("x"), Literal(3))
        assert expr.evaluate({"x": 4}) == 12
        assert expr.evaluate({"x": None}) is None

    def test_range_predicate(self):
        pred = RangePredicate("x", 5, 10)
        assert pred.evaluate({"x": 5}) and pred.evaluate({"x": 10})
        assert not pred.evaluate({"x": 4.9})
        assert not pred.evaluate({"x": None})

    def test_invalid_operators_rejected(self):
        with pytest.raises(ValueError):
            Comparison("<>", FieldRef("x"), Literal(1))
        with pytest.raises(ValueError):
            Arithmetic("%", FieldRef("x"), Literal(1))
        with pytest.raises(ValueError):
            AggregateSpec("median", FieldRef("x"))

    def test_referenced_fields(self):
        expr = And([RangePredicate("a", 0, 1), Comparison("<", FieldRef("b.c"), Literal(2))])
        assert expr.referenced_fields() == {"a", "b.c"}
        assert referenced_fields([AggregateSpec("sum", FieldRef("z")), expr]) == {"a", "b.c", "z"}


class TestSignatures:
    def test_structural_equality(self):
        a = RangePredicate("x", 1, 2)
        b = RangePredicate("x", 1, 2)
        c = RangePredicate("x", 1, 3)
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_and_signature_is_order_insensitive(self):
        p1 = And([RangePredicate("a", 0, 1), RangePredicate("b", 2, 3)])
        p2 = And([RangePredicate("b", 2, 3), RangePredicate("a", 0, 1)])
        assert p1.signature() == p2.signature()


class TestIntervals:
    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(5, 1)

    def test_covers_boundaries(self):
        assert Interval(0, 10).covers(Interval(0, 10))
        assert Interval(0, 10).covers(Interval(2, 8))
        assert not Interval(0, 10).covers(Interval(0, 11))
        assert not Interval(0, 10, low_inclusive=False).covers(Interval(0, 5))

    @given(
        st.floats(-1e6, 1e6), st.floats(0, 1e5), st.floats(-1e6, 1e6), st.floats(0, 1e5)
    )
    def test_covers_is_consistent_with_membership(self, low_a, width_a, low_b, width_b):
        outer = Interval(low_a, low_a + width_a)
        inner = Interval(low_b, low_b + width_b)
        if outer.covers(inner):
            for point in (inner.low, inner.high, (inner.low + inner.high) / 2):
                assert outer.contains_value(point)


class TestRangeExtractionAndSubsumption:
    def test_extract_from_conjunction(self):
        expr = And(
            [
                RangePredicate("a", 0, 10),
                Comparison(">=", FieldRef("b"), Literal(5)),
                Comparison("<", Literal(20), FieldRef("c")),
            ]
        )
        ranges = extract_ranges(expr)
        assert ranges["a"].low == 0 and ranges["a"].high == 10
        assert ranges["b"].low == 5 and math.isinf(ranges["b"].high)
        assert ranges["c"].low == 20 and not ranges["c"].low_inclusive

    def test_same_field_conjuncts_intersect(self):
        expr = And([RangePredicate("a", 0, 10), RangePredicate("a", 5, 20)])
        interval = extract_ranges(expr)["a"]
        assert (interval.low, interval.high) == (5, 10)

    def test_conjuncts_decomposition(self):
        expr = And([RangePredicate("a", 0, 1), And([RangePredicate("b", 0, 1), RangePredicate("c", 0, 1)])])
        assert len(conjuncts(expr)) == 3
        assert conjuncts(None) == []

    def test_subsumption_basic(self):
        wide = RangePredicate("a", 0, 100)
        narrow = RangePredicate("a", 10, 20)
        assert predicate_subsumes(wide, narrow)
        assert not predicate_subsumes(narrow, wide)

    def test_full_scan_subsumes_everything(self):
        assert predicate_subsumes(None, RangePredicate("a", 0, 1))
        assert not predicate_subsumes(RangePredicate("a", 0, 1), None)

    def test_different_fields_do_not_subsume(self):
        assert not predicate_subsumes(RangePredicate("a", 0, 100), RangePredicate("b", 10, 20))

    def test_conjunction_subsumption(self):
        cached = RangePredicate("a", 0, 100)
        new = And([RangePredicate("a", 10, 20), RangePredicate("b", 0, 5)])
        assert predicate_subsumes(cached, new)
        # The cached predicate constrains a field the new one does not: unsafe.
        cached2 = And([RangePredicate("a", 0, 100), RangePredicate("c", 0, 1)])
        assert not predicate_subsumes(cached2, new)

    def test_non_range_conjunct_blocks_subsumption(self):
        cached = And([RangePredicate("a", 0, 100), Or([RangePredicate("b", 0, 1)])])
        assert not predicate_subsumes(cached, RangePredicate("a", 10, 20))

    @pytest.mark.parametrize(
        "cached",
        [
            Comparison(">", Arithmetic("*", FieldRef("a"), FieldRef("a")), Literal(1.47)),
            Comparison("<", FieldRef("a"), FieldRef("b")),
            Comparison("!=", FieldRef("a"), Literal(3)),
            Comparison("==", FieldRef("s"), Literal("x")),
            And([RangePredicate("a", 0, 100), Comparison("!=", FieldRef("a"), Literal(3))]),
        ],
    )
    def test_comparison_without_an_interval_blocks_subsumption(self, cached):
        """Regression (found by the oracle fuzz: 176 of 700 seeded queries
        answered from the wrong entry): a cached comparison that yields no
        interval used to count as analysable and so subsumed every predicate."""
        assert not predicate_subsumes(cached, RangePredicate("a", 10, 20))
        assert not predicate_subsumes(cached, RangePredicate("c", 10, 20))

    @given(
        st.floats(-1e5, 1e5),
        st.floats(0.1, 1e4),
        st.floats(-1e5, 1e5),
        st.floats(0.1, 1e4),
    )
    def test_subsumption_soundness(self, low_a, width_a, low_b, width_b):
        """If cached subsumes new, any value satisfying new satisfies cached."""
        cached = RangePredicate("x", low_a, low_a + width_a)
        new = RangePredicate("x", low_b, low_b + width_b)
        if predicate_subsumes(cached, new):
            for value in (new.low, new.high, (new.low + new.high) / 2):
                assert cached.evaluate({"x": value})
