"""Tests for the ReCache cache manager (lookup, admission, eviction, switching)."""

import dataclasses
import inspect

import pytest

from repro.core.cache_manager import ReCache
from repro.core.config import ReCacheConfig
from repro.core.cache_entry import LayoutObservation
from repro.core.cost_model import LayoutCostModel
from repro.core.layout_selector import LayoutSelector
from repro.core.policies import MonetDBPolicy
from repro.core.subsumption import SubsumptionIndex
from repro.engine.expressions import RangePredicate
from repro.engine.types import FLOAT, Field, RecordType
from repro.layouts import build_layout
from repro.workloads.nested import ORDER_LINEITEMS_SCHEMA, synthetic_order_lineitems

FLAT = RecordType([Field("x", FLOAT), Field("y", FLOAT)])


def flat_layout(rows=20):
    data = [{"x": float(i), "y": i * 2.0} for i in range(rows)]
    return build_layout("columnar", FLAT, ["x", "y"], rows=data)


def admit(cache, source, predicate, rows=20, t=1.0, c=0.5):
    cache.begin_query()
    return cache.admit_eager(
        source=source,
        source_format="csv",
        predicate=predicate,
        fields=["x", "y"],
        layout=flat_layout(rows),
        operator_time=t,
        caching_time=c,
    )


class TestConfigValidation:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            ReCacheConfig(eviction_policy="belady")
        with pytest.raises(ValueError):
            ReCacheConfig(admission_threshold=0.0)
        with pytest.raises(ValueError):
            ReCacheConfig(cache_size_limit=0)
        for layout in ("arrow", "row"):
            with pytest.raises(ValueError):
                ReCacheConfig(default_nested_layout=layout)
        with pytest.raises(ValueError):
            ReCacheConfig(admission="adaptive")

    def test_config_has_no_more_knobs(self):
        """A ratchet, not a style rule: every independent knob doubles the
        configurations tests and benches must cover (ROADMAP aim 2).  A new
        field has to raise this number here and say which two callers need
        different values; a deleted field lowers it."""
        assert len(dataclasses.fields(ReCacheConfig)) <= 12

    @pytest.mark.parametrize(
        "component", [SubsumptionIndex, LayoutSelector, LayoutCostModel, MonetDBPolicy]
    )
    def test_core_constructors_take_no_knobs(self, component):
        """The same ratchet for what ``ReCache`` builds: a value only tests set
        is a module constant beside its code, which those tests monkeypatch."""
        assert not inspect.signature(component).parameters


class TestLookupAndAdmission:
    def test_exact_match(self):
        cache = ReCache(ReCacheConfig())
        predicate = RangePredicate("x", 0, 10)
        entry = admit(cache, "t", predicate)
        match = cache.lookup("t", RangePredicate("x", 0, 10), ["x"])
        assert match is not None and match.exact and match.entry is entry
        assert cache.stats.exact_hits == 1

    def test_subsumption_match(self):
        cache = ReCache(ReCacheConfig())
        admit(cache, "t", RangePredicate("x", 0, 100))
        match = cache.lookup("t", RangePredicate("x", 10, 20), ["x"])
        assert match is not None and not match.exact
        assert cache.stats.subsumption_hits == 1

    def test_miss(self):
        cache = ReCache(ReCacheConfig())
        admit(cache, "t", RangePredicate("x", 0, 100))
        assert cache.lookup("t", RangePredicate("x", 90, 120), ["x"]) is None
        assert cache.stats.misses == 1

    def test_caching_disabled(self):
        cache = ReCache(ReCacheConfig(caching_enabled=False))
        assert admit(cache, "t", RangePredicate("x", 0, 1)) is None
        assert cache.lookup("t", RangePredicate("x", 0, 1), ["x"]) is None

    def test_replacement_on_same_key(self):
        cache = ReCache(ReCacheConfig())
        first = admit(cache, "t", RangePredicate("x", 0, 10))
        second = admit(cache, "t", RangePredicate("x", 0, 10))
        assert len(cache) == 1
        assert cache.get_exact("t", RangePredicate("x", 0, 10)) is second
        assert first is not second

    def test_lazy_admission_and_hot_tracking(self):
        cache = ReCache(ReCacheConfig())
        cache.begin_query()
        entry = cache.admit_lazy(
            source="t",
            source_format="json",
            predicate=RangePredicate("x", 0, 5),
            fields=["x"],
            offsets=[1, 5, 9],
            operator_time=2.0,
            caching_time=0.01,
        )
        assert entry.is_lazy and entry.nbytes == 24
        assert entry in cache.entries() and not cache.has_hot_entries("t")
        cache.record_reuse(entry, scan_time=0.1, lookup_time=0.001)
        assert cache.has_hot_entries("t")
        cache.upgrade_lazy(entry, flat_layout(), caching_time=0.2)
        assert not entry.is_lazy and cache.stats.lazy_upgrades == 1


class TestCapacityAndEviction:
    def test_capacity_enforced(self):
        entry_size = flat_layout(50).nbytes
        cache = ReCache(ReCacheConfig(cache_size_limit=entry_size * 3 + 10, eviction_policy="lru"))
        for i in range(6):
            admit(cache, "t", RangePredicate("x", i, i + 0.5), rows=50)
        assert cache.total_bytes <= cache.config.cache_size_limit
        assert cache.stats.evictions >= 3

    def test_oversized_item_not_admitted(self):
        cache = ReCache(ReCacheConfig(cache_size_limit=100))
        assert admit(cache, "t", RangePredicate("x", 0, 1), rows=500) is None
        assert cache.stats.admissions_skipped == 1

    def test_evicted_entries_leave_the_subsumption_index(self):
        entry_size = flat_layout(50).nbytes
        cache = ReCache(ReCacheConfig(cache_size_limit=entry_size + 10, eviction_policy="lru"))
        admit(cache, "t", RangePredicate("x", 0, 100), rows=50)
        admit(cache, "t", RangePredicate("x", 200, 300), rows=50)
        # the first (covering) entry has been evicted, so no subsuming match
        assert cache.lookup("t", RangePredicate("x", 10, 20), ["x"]) is None
        assert cache.stats.evictions == 1

    def test_upgrade_never_evicts_the_entry_being_upgraded(self):
        """The eviction that makes room for a lazy entry's eager layout must
        exclude that entry.

        The entry is deliberately the lowest-benefit item in the cache and
        large enough to cover the deficit alone: without the exclusion, the
        eviction for its own upgrade would pick it as the one victim, evicting
        it and discarding the built layout.
        """
        offsets = list(range(200))
        filler = flat_layout(40)
        eager = flat_layout(200)
        growth = eager.nbytes - 8 * len(offsets)
        limit = 8 * len(offsets) + filler.nbytes * 4 + growth // 2
        # The deficit is positive and the lazy entry alone would cover it.
        assert 0 < growth - growth // 2 <= 8 * len(offsets)
        cache = ReCache(ReCacheConfig(cache_size_limit=limit))
        cache.begin_query()
        entry = cache.admit_lazy(
            source="t",
            source_format="csv",
            predicate=RangePredicate("x", 1000, 1000.5),
            fields=["x", "y"],
            offsets=offsets,
            operator_time=0.0001,  # lowest benefit in the cache
            caching_time=0.0001,
        )
        assert entry is not None
        for i in range(4):
            assert admit(cache, "t", RangePredicate("x", i, i + 0.5), rows=40, t=20.0)

        # The upgrade's growth cannot fit without evicting something.
        assert cache.total_bytes + eager.nbytes - entry.nbytes > limit
        assert cache.upgrade_lazy(entry, eager, caching_time=0.01)
        assert cache.get_exact("t", RangePredicate("x", 1000, 1000.5)) is entry
        assert not entry.is_lazy
        assert cache.stats.evictions >= 1
        assert cache.total_bytes <= limit
        assert cache.total_bytes == sum(e.nbytes for e in cache.entries())


class TestLayoutSwitchIntegration:
    def _nested_cache(self, layout_selection=True):
        cache = ReCache(ReCacheConfig(layout_selection=layout_selection))
        records = synthetic_order_lineitems(30, seed=2)
        fields = ORDER_LINEITEMS_SCHEMA.leaf_paths()
        layout = build_layout("parquet", ORDER_LINEITEMS_SCHEMA, fields, records=records)
        cache.begin_query()
        entry = cache.admit_eager(
            source="orders",
            source_format="json",
            predicate=None,
            fields=fields,
            layout=layout,
            operator_time=1.0,
            caching_time=0.5,
        )
        return cache, entry

    def test_switch_happens_under_nested_heavy_reuse(self):
        cache, entry = self._nested_cache()
        rows = entry.layout.flattened_row_count
        switched = None
        for i in range(5):
            cache.begin_query()
            observation = LayoutObservation(
                query_index=i,
                layout_name=entry.layout_name,
                data_cost=1.0,
                compute_cost=2.0,
                rows_accessed=rows,
                columns_accessed=3,
                accessed_nested=True,
            )
            switched = cache.record_reuse(entry, 3.0, 0.001, observation) or switched
        assert switched == "columnar"
        assert entry.layout_name == "columnar"
        assert cache.stats.layout_switches == 1
        # the observation window moved forward when the switch happened, so it
        # now only holds the observations recorded after it
        assert len(entry.observations) < 5

    def test_no_switch_when_selection_disabled(self):
        cache, entry = self._nested_cache(layout_selection=False)
        rows = entry.layout.flattened_row_count
        for i in range(5):
            cache.begin_query()
            observation = LayoutObservation(
                query_index=i,
                layout_name=entry.layout_name,
                data_cost=1.0,
                compute_cost=2.0,
                rows_accessed=rows,
                columns_accessed=3,
                accessed_nested=True,
            )
            cache.record_reuse(entry, 3.0, 0.001, observation)
        assert entry.layout_name == "parquet"
        assert cache.stats.layout_switches == 0


class TestOutOfLockLayoutSwitch:
    """The conversion runs outside the lock; install re-validates the world."""

    def _reuse_until_switch_decision(self, cache, entry, queries=5):
        rows = entry.layout.flattened_row_count
        results = []
        for i in range(queries):
            cache.begin_query()
            observation = LayoutObservation(
                query_index=i,
                layout_name=entry.layout_name,
                data_cost=1.0,
                compute_cost=2.0,
                rows_accessed=rows,
                columns_accessed=3,
                accessed_nested=True,
            )
            results.append(cache.record_reuse(entry, 3.0, 0.001, observation))
        return results

    def _nested_cache(self):
        cache = ReCache(ReCacheConfig(layout_selection=True))
        records = synthetic_order_lineitems(30, seed=2)
        fields = ORDER_LINEITEMS_SCHEMA.leaf_paths()
        layout = build_layout("parquet", ORDER_LINEITEMS_SCHEMA, fields, records=records)
        cache.begin_query()
        entry = cache.admit_eager(
            source="orders",
            source_format="json",
            predicate=None,
            fields=fields,
            layout=layout,
            operator_time=1.0,
            caching_time=0.5,
        )
        return cache, entry

    def test_eviction_during_conversion_drops_the_switch(self, monkeypatch):
        from repro.core import cache_manager as cm

        cache, entry = self._nested_cache()
        real_convert = cm.convert_layout

        def evict_mid_conversion(layout, target, schema):
            converted = real_convert(layout, target, schema)
            cache.evict_entry(entry)  # another thread evicts while we convert
            return converted

        monkeypatch.setattr(cm, "convert_layout", evict_mid_conversion)
        results = self._reuse_until_switch_decision(cache, entry)
        # The decision fired (convert ran, hence the eviction), but the install
        # re-validated residency and dropped the converted layout.
        assert all(result is None for result in results)
        assert entry.layout_name == "parquet"
        assert cache.stats.layout_switches == 0
        assert cache.total_bytes == 0  # eviction accounting untouched

    def test_concurrent_layout_change_loses_the_race(self, monkeypatch):
        from repro.core import cache_manager as cm

        cache, entry = self._nested_cache()
        real_convert = cm.convert_layout
        occupancy_before = cache.total_bytes

        def swap_mid_conversion(layout, target, schema):
            converted, seconds = real_convert(layout, target, schema)
            # Another thread replaced the entry's layout while we converted:
            # install must notice `entry.layout is not old_layout` and bail.
            other, _ = real_convert(entry.layout, target, schema)
            with cache._lock:
                delta = other.nbytes - entry.nbytes
                entry.replace_layout(other)
                cache._occupancy += delta
            return converted, seconds

        monkeypatch.setattr(cm, "convert_layout", swap_mid_conversion)
        results = self._reuse_until_switch_decision(cache, entry)
        assert all(result is None for result in results)
        assert cache.stats.layout_switches == 0
        assert occupancy_before > 0
        # Occupancy reflects exactly the racing replacement, nothing double.
        assert cache.total_bytes == entry.nbytes

    def test_switch_still_succeeds_without_interference(self):
        cache, entry = self._nested_cache()
        results = self._reuse_until_switch_decision(cache, entry)
        assert "columnar" in results
        assert entry.layout_name == "columnar"
        assert cache.stats.layout_switches == 1

    def test_concurrent_switch_of_same_entry_runs_one_conversion(self, monkeypatch):
        from repro.core import cache_manager as cm

        cache, entry = self._nested_cache()
        real_convert = cm.convert_layout
        conversions = []

        def nested_reuse_during_conversion(layout, target, schema):
            conversions.append(target)
            # While this conversion is in flight, a "concurrent" reuse sees the
            # in-progress flag and must skip its own conversion entirely.
            rows = entry.layout.flattened_row_count
            observation = LayoutObservation(
                query_index=99,
                layout_name=entry.layout_name,
                data_cost=1.0,
                compute_cost=2.0,
                rows_accessed=rows,
                columns_accessed=3,
                accessed_nested=True,
            )
            assert cache.record_reuse(entry, 3.0, 0.001, observation) is None
            return real_convert(layout, target, schema)

        monkeypatch.setattr(cm, "convert_layout", nested_reuse_during_conversion)
        results = self._reuse_until_switch_decision(cache, entry)
        assert "columnar" in results
        assert conversions == ["columnar"]  # exactly one conversion ran
        assert cache.stats.layout_switches == 1
