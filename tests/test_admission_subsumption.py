"""Tests for the admission controller and the subsumption index."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.admission import AdmissionController, AdmissionDecision, AdmissionSample
from repro.core.cache_entry import CacheEntry, CacheKey
from repro.core.subsumption import SubsumptionIndex
from repro.engine.expressions import And, RangePredicate
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

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(0, 100), st.floats(0, 30)), min_size=1, max_size=25),
        st.tuples(st.floats(0, 100), st.floats(0, 10)),
    )
    def test_rtree_and_linear_lookup_agree(self, cached_ranges, probe):
        rtree_index = SubsumptionIndex(use_rtree=True)
        linear_index = SubsumptionIndex(use_rtree=False)
        entries = []
        for low, width in cached_ranges:
            entry = make_entry("t", RangePredicate("x", low, low + width))
            entries.append(entry)
        for entry in entries:
            rtree_index.register(entry)
            linear_index.register(entry)
        query = RangePredicate("x", probe[0], probe[0] + probe[1])
        rtree_hits = {e.entry_id for e in rtree_index.find_subsuming("t", query, ["x"])}
        linear_hits = {e.entry_id for e in linear_index.find_subsuming("t", query, ["x"])}
        assert rtree_hits == linear_hits
