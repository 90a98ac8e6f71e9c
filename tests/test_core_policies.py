"""Tests for the benefit metric, Greedy-Dual eviction and the baseline policies."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.benefit import benefit_from_measurements, benefit_metric
from repro.core.cache_entry import CacheEntry, CacheKey
from repro.core.eviction import ReCacheGreedyDualPolicy, total_bytes
from repro.core.policies import (
    LFUPolicy,
    LRUPolicy,
    MonetDBPolicy,
    OfflineFarthestFirstPolicy,
    OfflineLogOptimalPolicy,
    ProteusLRUPolicy,
    VectorwisePolicy,
    make_policy,
)
from repro.engine.expressions import RangePredicate
from repro.engine.types import FLOAT, Field, RecordType
from repro.layouts import build_layout

SCHEMA = RecordType([Field("x", FLOAT)])


def make_entry(
    name: str,
    size_rows: int = 10,
    source_format: str = "csv",
    operator_time: float = 1.0,
    caching_time: float = 0.5,
    reuse_count: int = 0,
    last_access: int = 0,
) -> CacheEntry:
    layout = build_layout("columnar", SCHEMA, ["x"], records=[{"x": float(i)} for i in range(size_rows)])
    entry = CacheEntry(
        key=CacheKey.for_select(name, RangePredicate("x", 0, size_rows)),
        source=name,
        source_format=source_format,
        predicate=RangePredicate("x", 0, size_rows),
        fields=["x"],
        layout=layout,
    )
    entry.record_creation(0, operator_time, caching_time)
    entry.stats.reuse_count = reuse_count
    entry.stats.access_count = 1 + reuse_count
    entry.stats.last_access = last_access
    return entry


class TestBenefitMetric:
    def test_formula(self):
        value = benefit_from_measurements(
            reuse_count=3, operator_time=2.0, caching_time=1.0, scan_time=0.2, lookup_time=0.1,
            size_bytes=1024,
        )
        assert value == pytest.approx(3 * (2.0 + 1.0 - 0.3) / math.log2(1024))

    def test_floors_reuse_count_at_one(self):
        zero = benefit_from_measurements(0, 1.0, 1.0, 0.0, 0.0, 64)
        one = benefit_from_measurements(1, 1.0, 1.0, 0.0, 0.0, 64)
        assert zero == one > 0

    def test_never_negative(self):
        assert benefit_from_measurements(5, 0.1, 0.1, 1.0, 1.0, 64) == 0.0

    @given(
        st.integers(0, 100), st.floats(0, 10), st.floats(0, 10), st.floats(0, 1), st.floats(0, 1),
        st.integers(1, 10**9),
    )
    def test_non_negative_property(self, n, t, c, s, l, size):
        assert benefit_from_measurements(n, t, c, s, l, size) >= 0.0

    def test_entry_wrapper(self):
        entry = make_entry("a", reuse_count=2)
        assert benefit_metric(entry) > 0


class TestGreedyDualEviction:
    def test_evicts_lowest_benefit_first(self):
        cheap = make_entry("cheap", operator_time=0.01, caching_time=0.01)
        expensive = make_entry("expensive", operator_time=5.0, caching_time=2.0)
        policy = ReCacheGreedyDualPolicy()
        for entry in (cheap, expensive):
            policy.on_admit(entry, 1)
        victims = policy.choose_victims([cheap, expensive], bytes_to_free=1)
        assert victims == [cheap]

    def test_frees_enough_bytes(self):
        entries = [make_entry(f"e{i}", size_rows=10 * (i + 1)) for i in range(6)]
        policy = ReCacheGreedyDualPolicy()
        for entry in entries:
            policy.on_admit(entry, 1)
        needed = total_bytes(entries) // 2
        victims = policy.choose_victims(entries, needed)
        assert sum(v.nbytes for v in victims) >= needed

    def test_size_aware_heuristic_evicts_fewer_items(self):
        entries = [make_entry(f"e{i}", size_rows=5) for i in range(8)]
        entries.append(make_entry("big", size_rows=200, operator_time=0.02))
        size_aware = ReCacheGreedyDualPolicy(size_aware=True)
        plain = ReCacheGreedyDualPolicy(size_aware=False)
        for policy in (size_aware, plain):
            for entry in entries:
                policy.on_admit(entry, 1)
        target = entries[-1].nbytes  # exactly one big item's worth of space
        assert len(size_aware.choose_victims(entries, target)) <= len(plain.choose_victims(entries, target))

    def test_baseline_advances_after_eviction(self):
        policy = ReCacheGreedyDualPolicy()
        entries = [make_entry(f"e{i}") for i in range(4)]
        for entry in entries:
            policy.on_admit(entry, 1)
        assert policy.baseline == 0.0
        policy.choose_victims(entries, bytes_to_free=entries[0].nbytes)
        assert policy.baseline > 0.0

    def test_recently_accessed_items_survive(self):
        policy = ReCacheGreedyDualPolicy()
        old = make_entry("old", reuse_count=1)
        recent = make_entry("recent", reuse_count=1)
        policy.on_admit(old, 1)
        policy.on_admit(recent, 1)
        # Advance the baseline by evicting a throwaway entry, then access
        # "recent" so it picks up the new, higher baseline.
        filler = make_entry("filler", operator_time=3.0, caching_time=1.0)
        policy.on_admit(filler, 2)
        policy.choose_victims([old, recent, filler], bytes_to_free=filler.nbytes)
        policy.on_access(recent, 3)
        victims = policy.choose_victims([old, recent], bytes_to_free=1)
        assert victims == [old]

    def test_frozen_benefit_mode(self):
        policy = ReCacheGreedyDualPolicy(recompute_benefit=False)
        entry = make_entry("a", operator_time=1.0)
        policy.on_admit(entry, 1)
        frozen = policy.h_value(entry)
        entry.stats.operator_time = 100.0  # new measurement ignored when frozen
        assert policy.h_value(entry) == frozen

    def test_empty_and_zero_requests(self):
        policy = ReCacheGreedyDualPolicy()
        assert policy.choose_victims([], 100) == []
        assert policy.choose_victims([make_entry("a")], 0) == []


class TestBaselinePolicies:
    def test_lru_order(self):
        entries = [make_entry(f"e{i}", last_access=i) for i in range(5)]
        victims = LRUPolicy().choose_victims(entries, bytes_to_free=1)
        assert victims[0].source == "e0"

    def test_lfu_order(self):
        hot = make_entry("hot", reuse_count=10)
        cold = make_entry("cold", reuse_count=0)
        assert LFUPolicy().choose_victims([hot, cold], 1)[0] is cold

    def test_proteus_prefers_evicting_csv(self):
        json_entry = make_entry("json", source_format="json", last_access=0)
        csv_entry = make_entry("csv", source_format="csv", last_access=5)
        victims = ProteusLRUPolicy().choose_victims([json_entry, csv_entry], 1)
        assert victims[0] is csv_entry

    def test_vectorwise_and_monetdb_prefer_cheap_items(self):
        cheap = make_entry("cheap", operator_time=0.01, caching_time=0.0)
        costly = make_entry("costly", operator_time=4.0, caching_time=1.0)
        for policy in (VectorwisePolicy(), MonetDBPolicy()):
            assert policy.choose_victims([cheap, costly], 1)[0] is cheap

    def test_offline_farthest_first(self):
        policy = OfflineFarthestFirstPolicy()
        soon = make_entry("soon")
        later = make_entry("later")
        never = make_entry("never")
        policy.set_future_accesses(
            {soon.key.as_string(): [5], later.key.as_string(): [50]}
        )
        policy.advance_to(1)
        victims = policy.choose_victims([soon, later, never], 1)
        assert victims[0] is never
        victims = policy.choose_victims([soon, later], 1)
        assert victims[0] is later

    def test_offline_log_optimal_prefers_large_far_items(self):
        policy = OfflineLogOptimalPolicy()
        small_far = make_entry("small", size_rows=5)
        large_far = make_entry("large", size_rows=500)
        policy.set_future_accesses({})
        victims = policy.choose_victims([small_far, large_far], 1)
        assert victims[0] is large_far

    def test_make_policy(self):
        assert isinstance(make_policy("lru"), LRUPolicy)
        assert isinstance(make_policy("recache"), ReCacheGreedyDualPolicy)
        assert make_policy("recache", recompute_benefit=False).recompute_benefit is False
        with pytest.raises(ValueError):
            make_policy("belady")
