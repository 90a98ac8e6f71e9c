"""Tests for the admission controller and the subsumption index."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.admission import AdmissionController, AdmissionDecision, AdmissionSample
from repro.core.cache_entry import CacheEntry, CacheKey
from repro.core.subsumption import SubsumptionIndex
from repro.engine.expressions import (
    And,
    Comparison,
    FieldRef,
    Literal,
    RangePredicate,
    predicate_subsumes,
)
from repro.engine.types import FLOAT, Field, RecordType
from repro.layouts import build_layout

SCHEMA = RecordType([Field("x", FLOAT), Field("y", FLOAT)])


def make_entry(source, predicate, fields=("x", "y")):
    layout = build_layout(
        "columnar", SCHEMA, list(fields), rows=[{"x": 1.0, "y": 2.0}, {"x": 3.0, "y": 4.0}]
    )
    return CacheEntry(
        key=CacheKey.for_select(source, predicate),
        source=source,
        source_format="csv",
        predicate=predicate,
        fields=list(fields),
        layout=layout,
    )


SOURCES = st.sampled_from(["t", "u"])
FIELD_SETS = st.sampled_from([("x",), ("x", "y")])
#: few distinct bounds, so equal ends (open against closed) come up often
BOUNDS = st.sampled_from([0.0, 1.0, 5.0, 10.0])


@st.composite
def range_conjunct(draw):
    """One interval conjunct on ``x`` or ``y``: a range with open or closed
    ends, or a one-sided comparison (two of which can contradict)."""
    field = draw(st.sampled_from(["x", "y"]))
    if draw(st.booleans()):
        low, high = sorted((draw(BOUNDS), draw(BOUNDS)))
        return RangePredicate(field, low, high, draw(st.booleans()), draw(st.booleans()))
    op = draw(st.sampled_from(["<", "<=", ">", ">=", "=="]))
    return Comparison(op, FieldRef(field), Literal(draw(BOUNDS)))


def predicates(cached_side):
    """``None`` (a full scan) or a conjunction of interval conjuncts; on the
    cached side, possibly with a string equality no interval describes."""
    conjunct = range_conjunct()
    if cached_side:
        conjunct = st.one_of(
            conjunct, st.just(Comparison("==", FieldRef("name"), Literal("a")))
        )
    conjunction = st.lists(conjunct, min_size=1, max_size=3).map(
        lambda parts: parts[0] if len(parts) == 1 else And(parts)
    )
    return st.one_of(st.none(), conjunction)


class TestAdmissionController:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(overhead_threshold=0.0)
        with pytest.raises(ValueError):
            AdmissionController(sample_records=0)
        with pytest.raises(ValueError):
            AdmissionSample(0, 0, 1, 1, sample_records=0, total_records=10)

    def test_projected_overhead_scales_to_file_size(self):
        # 10% overhead within the sample stays 10% when extrapolated linearly.
        sample = AdmissionSample(to1=0.0, tc1=0.0, to2=1.0, tc2=0.1, sample_records=100, total_records=1000)
        controller = AdmissionController(overhead_threshold=0.2)
        assert controller.projected_overhead(sample) == pytest.approx(0.1)
        assert controller.decide(sample) is AdmissionDecision.EAGER

    def test_paper_join_example(self):
        """The R x S x sigma(T) example of Section 5.2.

        A 10-second join ran before the sample; caching the sample of T took
        100ms out of 10.1s total, which looks like 1% — but extrapolated to the
        rest of T the caching overhead is far higher, so ReCache must go lazy
        while the naive estimator stays eager.
        """
        sample = AdmissionSample(
            to1=10.0, tc1=0.0, to2=10.1, tc2=0.1, sample_records=1_000, total_records=1_000_000
        )
        controller = AdmissionController("reactive", overhead_threshold=0.10)
        assert controller.projected_overhead(sample) > 0.5
        assert controller.decide(sample) is AdmissionDecision.LAZY
        naive = AdmissionController("sample-local", overhead_threshold=0.10)
        assert naive.naive_overhead(sample) == pytest.approx(0.0099, rel=1e-2)
        assert naive.decide(sample) is AdmissionDecision.EAGER

    def test_high_overhead_goes_lazy(self):
        sample = AdmissionSample(to1=0.0, tc1=0.0, to2=1.0, tc2=0.5, sample_records=10, total_records=100)
        assert AdmissionController().decide(sample) is AdmissionDecision.LAZY

    def test_small_file_clamps_total_records(self):
        sample = AdmissionSample(to1=0.0, tc1=0.0, to2=1.0, tc2=0.05, sample_records=100, total_records=10)
        assert sample.total_records == 100

    def test_working_set_shortcut(self):
        # A hot source skips the sample; the fixed policies never sample.
        eager, lazy = AdmissionDecision.EAGER, AdmissionDecision.LAZY
        expected = {"reactive": None, "sample-local": None, "eager": eager, "lazy": lazy}
        for policy, cold in expected.items():
            controller = AdmissionController(policy)
            assert controller.initial_mode(source_is_hot=False) is cold
            assert controller.initial_mode(source_is_hot=True) is (cold or eager)

    @given(
        st.floats(0, 10), st.floats(0, 10), st.floats(0, 10), st.integers(1, 1000), st.integers(1, 100000)
    )
    def test_projected_overhead_bounded(self, to1, extra_to, tc_delta, sample_records, total_records):
        sample = AdmissionSample(
            to1=to1,
            tc1=0.0,
            to2=to1 + extra_to + tc_delta,
            tc2=min(tc_delta, extra_to + tc_delta),
            sample_records=sample_records,
            total_records=total_records,
        )
        overhead = AdmissionController().projected_overhead(sample)
        assert 0.0 <= overhead <= 1.0 + 1e-9


class TestSubsumptionIndex:
    def test_exact_and_covering_lookup(self):
        index = SubsumptionIndex()
        wide = make_entry("t", RangePredicate("x", 0, 100))
        narrow = make_entry("t", RangePredicate("x", 40, 50))
        other_source = make_entry("u", RangePredicate("x", 0, 100))
        for entry in (wide, narrow, other_source):
            index.register(entry)
        matches = index.find_subsuming("t", RangePredicate("x", 45, 48), ["x"])
        assert wide in matches and narrow in matches and other_source not in matches
        assert index.find_subsuming("t", RangePredicate("x", 10, 60), ["x"]) == [wide]

    def test_full_scan_entries_subsume_everything(self):
        index = SubsumptionIndex()
        full = make_entry("t", None)
        index.register(full)
        assert index.find_subsuming("t", RangePredicate("x", 0, 1), ["x"]) == [full]
        assert index.find_subsuming("t", None, ["x"]) == [full]

    def test_field_coverage_required(self):
        index = SubsumptionIndex()
        entry = make_entry("t", RangePredicate("x", 0, 100), fields=("x",))
        index.register(entry)
        assert index.find_subsuming("t", RangePredicate("x", 1, 2), ["x", "y"]) == []

    def test_unregister(self):
        index = SubsumptionIndex()
        entry = make_entry("t", RangePredicate("x", 0, 100))
        index.register(entry)
        index.unregister(entry)
        assert index.find_subsuming("t", RangePredicate("x", 1, 2), ["x"]) == []

    def test_conjunctive_predicates(self):
        index = SubsumptionIndex()
        cached = make_entry("t", And([RangePredicate("x", 0, 50), RangePredicate("y", 0, 50)]))
        index.register(cached)
        assert index.find_subsuming(
            "t", And([RangePredicate("x", 10, 20), RangePredicate("y", 10, 20)]), ["x"]
        ) == [cached]
        # the new predicate leaves y unconstrained: the cached result is not a superset
        assert index.find_subsuming("t", RangePredicate("x", 10, 20), ["x"]) == []

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("register"), SOURCES, predicates(cached_side=True), FIELD_SETS
                ),
                st.tuples(st.just("unregister"), st.integers(0, 20)),
            ),
            max_size=14,
        ),
        SOURCES,
        predicates(cached_side=False),
        FIELD_SETS,
        st.one_of(st.none(), st.integers(0, 20)),
    )
    def test_lookup_matches_the_reference_rule(self, operations, source, new, fields, exclude):
        """``find_subsuming`` returns, in admission order, exactly the live
        entries on the source that ``predicate_subsumes`` and
        ``supports_fields`` accept, minus ``exclude_key``."""
        index = SubsumptionIndex()
        live: list[CacheEntry] = []
        for operation in operations:
            if operation[0] == "register":
                _, entry_source, predicate, entry_fields = operation
                entry = make_entry(entry_source, predicate, fields=entry_fields)
                index.register(entry)
                live.append(entry)
            elif live:
                index.unregister(live.pop(operation[1] % len(live)))
        exclude_key = None
        if exclude is not None and live:
            exclude_key = live[exclude % len(live)].key.as_string()
        expected = [
            entry
            for entry in live
            if entry.source == source
            and predicate_subsumes(entry.predicate, new)
            and entry.supports_fields(list(fields))
            and entry.key.as_string() != exclude_key
        ]
        assert index.find_subsuming(source, new, list(fields), exclude_key) == expected
