"""Tests for the layout cost model (equations 1-5) and the layout selector."""

import random

import pytest

from repro.core import cost_model, layout_selector
from repro.core.cache_entry import CacheEntry, CacheKey, LayoutObservation
from repro.core.cost_model import (
    LayoutCostModel,
    closest_compute_cost,
    percentage_error,
)
from repro.core.layout_selector import LayoutSelector
from repro.layouts import build_layout
from repro.workloads.nested import ORDER_LINEITEMS_SCHEMA, synthetic_order_lineitems


def obs(layout, data, compute, rows, cols, nested=False, index=0):
    return LayoutObservation(
        query_index=index,
        layout_name=layout,
        data_cost=data,
        compute_cost=compute,
        rows_accessed=rows,
        columns_accessed=cols,
        accessed_nested=nested,
    )


class TestPaperWorkedExample:
    """The numeric example of Section 4.2: 5 queries, sum(D)=1000, sum(C)=2000."""

    def _observations(self, rows):
        return [obs("parquet", 200.0, 400.0, rows, 2, index=i) for i in range(5)]

    def test_non_nested_access_keeps_parquet(self):
        model = LayoutCostModel()
        estimate = model.evaluate_parquet_to_relational(self._observations(rows=100), flattened_rows=400)
        assert estimate.current_cost == pytest.approx(3000.0)
        assert estimate.candidate_cost == pytest.approx(4000.0)
        assert estimate.transformation_cost == pytest.approx(2400.0)
        assert not estimate.should_switch

    def test_nested_access_switches_to_relational(self):
        model = LayoutCostModel()
        estimate = model.evaluate_parquet_to_relational(self._observations(rows=400), flattened_rows=400)
        assert estimate.current_cost == pytest.approx(3000.0)
        assert estimate.candidate_cost == pytest.approx(1000.0)
        assert estimate.transformation_cost == pytest.approx(600.0)
        assert estimate.should_switch


class TestRelationalToParquet:
    def test_switch_when_queries_avoid_nested_columns(self):
        model = LayoutCostModel()
        observations = [obs("columnar", 100.0, 0.0, 400, 2, index=i) for i in range(5)]
        estimate = model.evaluate_relational_to_parquet(
            observations,
            flattened_rows=400,
            parquet_rows_for=lambda o: 100,
            compute_cost_estimator=lambda rows, cols: 50.0,
        )
        # relational: 500; parquet estimate: 5 * (100 + 50) * 0.25 = 187.5; T = 100
        assert estimate.current_cost == pytest.approx(500.0)
        assert estimate.candidate_cost == pytest.approx(187.5)
        assert estimate.should_switch

    def test_minimum_observation_guard(self, monkeypatch):
        monkeypatch.setattr(cost_model, "MINIMUM_OBSERVATIONS", 3)
        model = LayoutCostModel()
        # two observations switch under the default minimum of 2 (200 > 50 + 100)
        observations = [obs("columnar", 100.0, 0.0, 400, 2)] * 2
        estimate = model.evaluate_relational_to_parquet(
            observations, 400, lambda o: 100, lambda r, c: 0.0
        )
        assert not estimate.should_switch


class TestHelpers:
    def test_percentage_error(self):
        assert percentage_error(110, 100) == pytest.approx(10.0)
        assert percentage_error(0, 0) == 0.0
        assert percentage_error(5, 0) == 100.0

    def test_closest_compute_cost_scales_to_footprint(self):
        history = [obs("parquet", 10.0, 40.0, 1000, 4), obs("parquet", 10.0, 8.0, 100, 2)]
        # closest by rows to 100 is the second observation; same footprint -> unscaled
        assert closest_compute_cost(history, 100, 2) == pytest.approx(8.0)
        # half the rows -> half the compute
        assert closest_compute_cost(history, 50, 2) == pytest.approx(4.0)
        assert closest_compute_cost([], 10, 1) is None

    @pytest.mark.parametrize("seed", range(20))
    def test_first_observation_per_footprint_keeps_closest_compute_cost(self, seed):
        rng = random.Random(seed)
        history = [
            obs("parquet", 1.0, rng.uniform(0.1, 9.0), rng.choice([10, 50, 100, 400]), rng.randint(1, 3))
            for _ in range(rng.randint(1, 40))
        ]
        entry = CacheEntry(
            key=CacheKey.for_select("t", None),
            source="t",
            source_format="json",
            predicate=None,
            fields=["x"],
            layout=build_layout("columnar", ORDER_LINEITEMS_SCHEMA, ["o_orderkey"], records=[{}]),
        )
        for observation in history:
            entry.add_observation(observation)
        footprints = {(o.rows_accessed, o.columns_accessed) for o in history}
        assert len(entry.parquet_history) == len(footprints)
        for rows in (0, 10, 30, 75, 100, 250, 400, 1000):
            for columns in (1, 2, 3, 4):
                assert closest_compute_cost(
                    entry.parquet_history.values(), rows, columns
                ) == closest_compute_cost(history, rows, columns)

    def test_prediction_helpers(self):
        model = LayoutCostModel()
        parquet_obs = obs("parquet", 10.0, 20.0, 100, 2)
        assert model.predict_relational_scan_cost(parquet_obs, 400) == pytest.approx(40.0)
        columnar_obs = obs("columnar", 40.0, 0.0, 400, 2)
        assert model.predict_parquet_scan_cost(columnar_obs, 100, 5.0) == pytest.approx(15.0)


class TestLayoutSelectorOnEntries:
    def _entry(self, layout_name):
        records = synthetic_order_lineitems(40, seed=3)
        fields = ORDER_LINEITEMS_SCHEMA.leaf_paths()
        layout = build_layout(layout_name, ORDER_LINEITEMS_SCHEMA, fields, records=records)
        entry = CacheEntry(
            key=CacheKey.for_select("orders", None),
            source="orders",
            source_format="json",
            predicate=None,
            fields=fields,
            layout=layout,
        )
        entry.record_creation(0, 1.0, 0.5)
        return entry

    def test_parquet_entry_switches_under_nested_access(self):
        entry = self._entry("parquet")
        selector = LayoutSelector()
        rows = entry.layout.flattened_row_count
        for i in range(4):
            selector.observe(entry, obs("parquet", 1.0, 2.0, rows, 3, nested=True, index=i))
        decision = selector.decide(entry)
        assert decision.should_switch and decision.target_layout == "columnar"

    def test_columnar_entry_switches_back_for_non_nested_workload(self):
        entry = self._entry("columnar")
        # give it some Parquet history so ComputeCost has something to scale
        rows = entry.layout.flattened_row_count
        entry.parquet_history[(rows, 3)] = obs("parquet", 1.0, 2.0, rows, 3, nested=True)
        selector = LayoutSelector()
        for i in range(6):
            selector.observe(entry, obs("columnar", 1.0, 0.1, rows, 2, nested=False, index=i))
        decision = selector.decide(entry)
        assert decision.should_switch and decision.target_layout == "parquet"

    def test_window_is_bounded(self, monkeypatch):
        monkeypatch.setattr(layout_selector, "WINDOW_SIZE", 5)
        entry = self._entry("parquet")
        selector = LayoutSelector()
        for i in range(20):
            selector.observe(entry, obs("parquet", 1.0, 1.0, 10, 1, index=i))
        assert len(entry.observations) == 5

    def test_lazy_and_flat_entries_never_switch(self):
        selector = LayoutSelector()
        entry = self._entry("parquet")
        entry.mode = "lazy"
        assert not selector.decide(entry).should_switch
