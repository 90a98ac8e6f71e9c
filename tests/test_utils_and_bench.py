"""Tests for the utility helpers, reporting and the bench harness plumbing."""

import pytest

from repro.bench.related_work import TABLE1_REQUIREMENTS, table1_related_work
from repro.bench.reporting import (
    cdf_points,
    closeness_to_optimal,
    format_series,
    format_table,
    fraction_below,
    percent_reduction,
)
from repro.engine.calibration import (
    estimate_data_access_time,
    override_per_value_seconds,
    per_value_access_seconds,
    split_scan_cost,
)
from repro.utils import format_bytes, format_seconds, make_rng
from repro.utils.rng import spawn


class TestUtils:
    def test_format_bytes(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(1536) == "1.50 KiB"
        with pytest.raises(ValueError):
            format_bytes(-1)

    def test_format_seconds(self):
        assert format_seconds(0.0000005).endswith("us")
        assert format_seconds(0.05).endswith("ms")
        assert format_seconds(5).endswith("s")
        assert "m" in format_seconds(200)

    def test_rng_helpers(self):
        assert make_rng(5).random() == make_rng(5).random()
        parent = make_rng(5)
        assert spawn(parent, "a").random() != spawn(make_rng(5), "b").random()


class TestCalibration:
    def test_split_scan_cost_with_override(self):
        override_per_value_seconds(1e-6)
        try:
            assert estimate_data_access_time(1000) == pytest.approx(1e-3)
            data, compute = split_scan_cost(0.005, 1000)
            assert data == pytest.approx(1e-3) and compute == pytest.approx(4e-3)
            # the data cost never exceeds the measured total
            data, compute = split_scan_cost(0.0005, 1000)
            assert data == pytest.approx(0.0005) and compute == 0.0
        finally:
            override_per_value_seconds(None)

    def test_calibration_is_positive_and_cached(self):
        first = per_value_access_seconds()
        assert first > 0
        assert per_value_access_seconds() == first


class TestReporting:
    def test_format_table(self):
        text = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": None}], title="T")
        assert "T" in text and "a" in text and "10" in text and "-" in text
        assert format_table([]) == "(no rows)"

    def test_series_and_cdf(self):
        assert "0.5" in format_series("x", [0.5, 1.5], every=1)
        points = cdf_points([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        assert points["p50"] in (5, 6) and points["p99"] == 10
        assert fraction_below([1, 2, 3, 4], 2) == 0.5

    def test_reduction_and_closeness(self):
        assert percent_reduction(10, 5) == 50.0
        assert percent_reduction(0, 5) == 0.0
        assert closeness_to_optimal(6, 10, 5) == pytest.approx(80.0)
        assert closeness_to_optimal(10, 5, 5) == 0.0


class TestTable1:
    def test_rows_match_paper(self):
        rows = table1_related_work()
        assert len(rows) == 6
        recache = rows[-1]
        assert recache["research_area"].startswith("Reactive Cache")
        assert all(recache[req] for req in TABLE1_REQUIREMENTS)
        # No other research area satisfies all three requirements.
        assert all(
            not all(row[req] for req in TABLE1_REQUIREMENTS) for row in rows[:-1]
        )


class TestExperimentDrivers:
    """Tiny-scale invocations proving the figure drivers run end to end."""

    def test_figure5_and_6_shapes(self):
        from repro.bench.experiments import figure5_scan_vs_cardinality, figure6_write_latency

        scan_rows = figure5_scan_vs_cardinality(cardinalities=(0, 4), num_records=60)
        assert len(scan_rows) == 2
        assert scan_rows[1]["parquet_scan_s"] > 0
        build_rows = figure6_write_latency(cardinalities=(4,), num_records=60)
        assert build_rows[0]["columnar_build_s"] > 0

    def test_figure7_returns_error_distribution(self):
        from repro.bench.experiments import figure7_cost_model_error

        result = figure7_cost_model_error(num_orders=60, num_queries=10)
        assert len(result["errors"]) == 20
        assert 0.0 <= result["fraction_within_30pct"] <= 1.0

    def test_figure9_runs_with_real_selector(self):
        from repro.bench.experiments import figure9_auto_layout

        result = figure9_auto_layout(pattern="halves", num_queries=24, num_orders=80)
        assert set(result["totals"]) == {"parquet", "columnar", "recache"}
        assert result["optimal_total"] <= min(result["totals"]["parquet"], result["totals"]["columnar"])
        with pytest.raises(ValueError):
            figure9_auto_layout(pattern="unknown")
