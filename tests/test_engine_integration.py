"""End-to-end tests: planning, execution, caching behaviour and consistency."""

import pytest

from repro import (
    AggregateSpec,
    FieldRef,
    JoinSpec,
    Query,
    QueryEngine,
    RangePredicate,
    ReCacheConfig,
    TableRef,
)
from repro.engine.algebra import AggregateNode, CacheScanNode, MaterializeNode
from repro.engine.optimizer import required_fields
from repro.workloads.runner import WorkloadRunner
from tests.conftest import build_engine


def flat_query(low=50, high=150, agg_field="value", label=""):
    return Query.select_aggregate(
        "flat",
        RangePredicate("id", low, high),
        [AggregateSpec("sum", FieldRef(agg_field)), AggregateSpec("count", FieldRef("id"))],
        label=label,
    )


def nested_query(low=0, high=1e6, field="lineitems.l_quantity"):
    return Query.select_aggregate(
        "orders",
        RangePredicate("o_totalprice", low, high),
        [AggregateSpec("sum", FieldRef(field)), AggregateSpec("count", FieldRef("o_orderkey"))],
    )


def join_query():
    return Query(
        tables=[
            TableRef("flat", RangePredicate("id", 0, 300)),
            TableRef("orders", RangePredicate("o_totalprice", 0, 1e6)),
        ],
        joins=[JoinSpec("flat", "id", "orders", "o_orderkey")],
        aggregates=[AggregateSpec("count", FieldRef("id")), AggregateSpec("sum", FieldRef("value"))],
    )


class TestQuerySpecs:
    def test_validation(self):
        with pytest.raises(ValueError):
            Query(tables=[])
        with pytest.raises(ValueError):
            Query(tables=[TableRef("a"), TableRef("a")])
        with pytest.raises(ValueError):
            Query(tables=[TableRef("a")], joins=[JoinSpec("a", "x", "b", "y")])

    def test_required_fields(self, engine):
        fields = required_fields(join_query(), engine.catalog, "flat")
        assert fields == ["id", "value"]
        nested_fields = required_fields(nested_query(), engine.catalog, "orders")
        assert "lineitems.l_quantity" in nested_fields and "o_totalprice" in nested_fields

    def test_unknown_field_rejected(self, engine):
        bad = Query.select_aggregate("flat", RangePredicate("nope", 0, 1), [AggregateSpec("count", FieldRef("id"))])
        with pytest.raises(KeyError):
            engine.execute(bad)


class TestPlanning:
    def test_plan_materializes_on_miss_and_reuses_on_hit(self, engine):
        info = engine.plan(flat_query())
        assert isinstance(info.plan, AggregateNode)
        assert isinstance(info.table_plans["flat"], MaterializeNode)
        engine.execute(flat_query())
        info_after = engine.plan(flat_query())
        assert isinstance(info_after.table_plans["flat"], CacheScanNode)
        assert info_after.exact_hits == 1

    def test_explain_renders_tree(self, engine):
        text = engine.explain(join_query())
        assert "HashJoin" in text and "Materialize" in text and "Aggregate" in text


class TestExecutionConsistency:
    def test_repeated_query_same_result_and_cache_hit(self, engine):
        first = engine.execute(flat_query())
        second = engine.execute(flat_query())
        assert first.results == second.results
        assert second.exact_hits == 1 and second.misses == 0
        assert first.rows_returned == 1

    def test_subsumption_gives_same_result_as_cold_engine(self, engine, dataset_dir):
        engine.execute(flat_query(0, 400))
        warm = engine.execute(flat_query(100, 200, label="narrow"))
        cold = build_engine(dataset_dir, ReCacheConfig(caching_enabled=False)).execute(
            flat_query(100, 200)
        )
        assert warm.subsumption_hits == 1
        assert warm.results == cold.results

    def test_nested_query_consistency_across_configs(self, dataset_dir):
        configs = {
            "none": ReCacheConfig(caching_enabled=False),
            "parquet": ReCacheConfig(admission="eager", default_nested_layout="parquet"),
            "columnar": ReCacheConfig(
                admission="eager", default_nested_layout="columnar", layout_selection=False
            ),
            "lazy": ReCacheConfig(admission="lazy"),
        }
        queries = [
            nested_query(),
            nested_query(field="o_totalprice"),
            nested_query(low=100000, high=400000),
            join_query(),
        ]
        baselines = None
        for config in configs.values():
            engine = build_engine(dataset_dir, config)
            results = []
            for query in queries:
                engine.execute(query)  # first run populates caches
                results.append(engine.execute(query).results)
            if baselines is None:
                baselines = results
            else:
                for base, got in zip(baselines, results):
                    for brow, grow in zip(base, got):
                        for key, value in brow.items():
                            if isinstance(value, float):
                                assert grow[key] == pytest.approx(value, rel=1e-9)
                            else:
                                assert grow[key] == value

    def test_join_with_caching_matches_cold(self, engine, dataset_dir):
        cold = build_engine(dataset_dir, ReCacheConfig(caching_enabled=False)).execute(join_query())
        engine.execute(join_query())
        warm = engine.execute(join_query())
        assert warm.cache_hits >= 1
        assert warm.results[0]["count($id)"] == cold.results[0]["count($id)"]

    def test_group_by(self, engine):
        query = Query(
            tables=[TableRef("flat", RangePredicate("id", 0, 100))],
            aggregates=[AggregateSpec("count", FieldRef("id"))],
            group_by=["group"],
        )
        report = engine.execute(query)
        assert report.rows_returned == 10
        assert sum(row["count($id)"] for row in report.results) == 101


class TestCachingBehaviour:
    def test_lazy_config_admits_offsets_only(self, dataset_dir):
        engine = build_engine(dataset_dir, ReCacheConfig(admission="lazy"))
        engine.execute(flat_query())
        entries = engine.cache_entries()
        assert entries and all(entry.is_lazy for entry in entries)

    def test_lazy_entry_upgraded_on_reuse(self, dataset_dir):
        config = ReCacheConfig(
            admission="reactive", admission_threshold=0.0001, admission_sample_records=20
        )
        engine = build_engine(dataset_dir, config)
        engine.execute(nested_query())
        assert any(entry.is_lazy for entry in engine.cache_entries())
        engine.execute(nested_query())
        assert engine.cache_stats.lazy_upgrades >= 1

    @pytest.mark.parametrize(
        "admission, threshold, decided",
        # Caching time never exceeds query time: a 1.0 threshold is never
        # crossed (eager) and a 1e-6 one always is (lazy).
        [("eager", 0.1, "eager"), ("lazy", 0.1, "lazy")]
        + [(policy, 1.0, "eager") for policy in ("reactive", "sample-local")]
        + [(policy, 1e-6, "lazy") for policy in ("reactive", "sample-local")],
    )
    def test_each_admission_policy_decides_deterministically(
        self, dataset_dir, admission, threshold, decided
    ):
        config = ReCacheConfig(
            admission=admission, admission_threshold=threshold, admission_sample_records=50
        )
        engine = build_engine(dataset_dir, config)
        report = engine.execute(nested_query())  # a miss on a cold source
        assert report.admissions == {"eager": 0, "lazy": 0, decided: 1}
        # A lazy entry upgrades on reuse under every policy but "lazy" (row i
        # of flat.csv has id i, so these are the offsets of the predicate).
        fields = engine.catalog.get("flat").flattened_schema.field_names()
        engine.recache.admit_lazy(
            "flat", "csv", RangePredicate("id", 50, 150), fields, list(range(50, 151)), 1.0, 0.0
        )
        upgrades = int(admission != "lazy")
        assert engine.execute(flat_query(50, 150)).lazy_upgrades == upgrades
        stats = engine.cache_stats
        assert (stats.admissions_eager, stats.admissions_lazy, stats.lazy_upgrades) == (
            report.admissions["eager"], report.admissions["lazy"] + 1, upgrades
        )

    def test_eviction_under_memory_pressure(self, dataset_dir):
        engine = build_engine(
            dataset_dir, ReCacheConfig(cache_size_limit=30_000, admission="eager")
        )
        for i in range(6):
            engine.execute(flat_query(i * 10, i * 10 + 200, label=f"q{i}"))
            engine.execute(nested_query(low=i * 1000, high=500000 + i * 1000))
        assert engine.cached_bytes() <= 30_000
        assert engine.cache_stats.evictions > 0

    def test_caching_disabled_never_caches(self, dataset_dir):
        engine = build_engine(dataset_dir, ReCacheConfig(caching_enabled=False))
        engine.execute(flat_query())
        assert len(engine.cache_entries()) == 0

    def test_report_fields(self, engine):
        report = engine.execute(flat_query())
        data = report.as_dict()
        assert data["misses"] == 1 and data["total_time"] > 0
        assert 0.0 <= report.caching_overhead < 1.0


class TestWorkloadRunner:
    def test_runner_collects_per_query_metrics(self, engine):
        runner = WorkloadRunner(engine)
        queries = [flat_query(i, i + 100, label=f"q{i}") for i in range(0, 50, 10)]
        result = runner.run(queries, label="unit")
        assert result.query_count == 5
        assert len(result.cumulative_times) == 5
        assert result.cumulative_times[-1] == pytest.approx(result.total_time)
        assert result.summary()["label"] == "unit"
        assert result.tail_total_time(2) <= result.total_time

    def test_offline_policy_receives_schedule(self, dataset_dir):
        engine = build_engine(
            dataset_dir,
            ReCacheConfig(eviction_policy="offline-farthest", admission="eager"),
        )
        runner = WorkloadRunner(engine)
        queries = [flat_query(0, 100), flat_query(0, 100), flat_query(50, 80)]
        runner.run(queries)
        assert engine.recache.policy._future  # the schedule was installed
