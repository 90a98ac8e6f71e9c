"""Tests for the dataset generators and query workload generators."""

import pytest

from repro.engine.expressions import RangePredicate
from repro.engine.flatten import FlattenPlan
from repro.workloads import (
    AttributeSchedule,
    SYMANTEC_CSV_SCHEMA,
    SYMANTEC_FIELD_RANGES,
    SYMANTEC_JSON_SCHEMA,
    TPCH_FIELD_RANGES,
    TPCH_SCHEMAS,
    TPCHGenerator,
    YELP_FIELD_RANGES,
    YELP_SCHEMAS,
    cardinality_sweep_records,
    spa_workload,
    spj_tpch_workload,
    symantec_mixed_workload,
    synthetic_order_lineitems,
    yelp_spa_workload,
)
from repro.workloads.nested import CARDINALITY_SWEEP_SCHEMA, ORDER_LINEITEMS_SCHEMA
from repro.workloads.symantec import spam_json_records
from repro.workloads.yelp import business_records, user_records


class TestTPCHGenerator:
    def test_cardinalities_scale(self):
        generator = TPCHGenerator(scale_factor=0.001)
        assert generator.cardinality("lineitem") == 6000
        assert generator.cardinality("customer") == 150
        with pytest.raises(KeyError):
            generator.cardinality("region")

    def test_rows_match_schema_and_ranges(self):
        generator = TPCHGenerator(scale_factor=0.0002, seed=1)
        for table, schema in TPCH_SCHEMAS.items():
            rows = list(generator.rows(table))
            assert len(rows) == generator.cardinality(table)
            names = set(schema.field_names())
            assert set(rows[0]) == names
            for field, (low, high) in TPCH_FIELD_RANGES[table].items():
                values = [row[field] for row in rows[:200]]
                assert all(low <= value <= high for value in values)

    def test_determinism(self):
        a = list(TPCHGenerator(scale_factor=0.0002, seed=9).orders_rows())
        b = list(TPCHGenerator(scale_factor=0.0002, seed=9).orders_rows())
        assert a == b

    def test_order_lineitems_join_consistency(self):
        generator = TPCHGenerator(scale_factor=0.0002, seed=1)
        records = list(generator.order_lineitems_records())
        total_lineitems = sum(len(record["lineitems"]) for record in records)
        assert total_lineitems == generator.cardinality("lineitem")
        plan = FlattenPlan(ORDER_LINEITEMS_SCHEMA)
        plan.columns(records[:20], ORDER_LINEITEMS_SCHEMA.leaf_paths())  # must not raise


class TestSyntheticDatasets:
    def test_order_lineitems_shape(self):
        records = synthetic_order_lineitems(50, average_lineitems=3, seed=1)
        assert len(records) == 50
        assert set(records[0]) == set(ORDER_LINEITEMS_SCHEMA.field_names())

    def test_cardinality_sweep(self):
        records = cardinality_sweep_records(20, cardinality=5)
        assert all(len(record["items"]) == 5 for record in records)
        assert set(records[0]) == set(CARDINALITY_SWEEP_SCHEMA.field_names())
        with pytest.raises(ValueError):
            cardinality_sweep_records(0, 1)

    def test_symantec_records_have_optional_and_nested_fields(self):
        records = spam_json_records(300, seed=1)
        with_subject = [r for r in records if "subject_length" in r]
        assert 0 < len(with_subject) < len(records)
        assert all("urls" in record and "origin" in record for record in records)
        plan = FlattenPlan(SYMANTEC_JSON_SCHEMA)
        plan.columns(records[:50], SYMANTEC_JSON_SCHEMA.leaf_paths())  # must not raise
        assert set(SYMANTEC_CSV_SCHEMA.field_names()) == {
            "email_id", "class_id", "confidence", "summary_length", "cluster",
        }

    def test_yelp_records_have_large_collections(self):
        businesses = business_records(100, seed=2)
        users = user_records(100, seed=2)
        assert any(len(b["checkins"]) > 10 for b in businesses)
        assert any(len(u["friends"]) > 20 for u in users)
        for name, schema in YELP_SCHEMAS.items():
            assert name in YELP_FIELD_RANGES and schema.leaf_paths()


class TestAttributeSchedules:
    def test_halves(self):
        schedule = AttributeSchedule.halves(10)
        assert schedule.pool_for(0) == "all" and schedule.pool_for(9) == "non_nested"

    def test_alternating(self):
        schedule = AttributeSchedule.alternating(period=3)
        assert [schedule.pool_for(i) for i in range(7)] == [
            "all", "all", "all", "non_nested", "non_nested", "non_nested", "all",
        ]

    def test_random_mix_is_deterministic(self):
        a = AttributeSchedule.random_mix(0.5, seed=3)
        b = AttributeSchedule.random_mix(0.5, seed=3)
        assert [a.pool_for(i) for i in range(20)] == [b.pool_for(i) for i in range(20)]

    def test_invalid_pool_rejected(self):
        with pytest.raises(ValueError):
            AttributeSchedule(lambda i: "weird").pool_for(0)


class TestQueryWorkloads:
    def test_spa_workload_respects_schedule(self):
        queries = spa_workload(
            "orderLineitems",
            ORDER_LINEITEMS_SCHEMA,
            TPCH_FIELD_RANGES["orderLineitems"],
            num_queries=40,
            schedule=AttributeSchedule.halves(40),
            seed=1,
        )
        assert len(queries) == 40
        for query in queries[20:]:
            fields = set()
            for agg in query.aggregates:
                fields |= agg.referenced_fields()
            fields |= query.tables[0].predicate.referenced_fields()
            assert not any(ORDER_LINEITEMS_SCHEMA.is_nested_path(f) for f in fields)

    def test_spa_workload_determinism(self):
        kwargs = {
            "source": "orderLineitems",
            "schema": ORDER_LINEITEMS_SCHEMA,
            "field_ranges": TPCH_FIELD_RANGES["orderLineitems"],
            "num_queries": 10,
            "seed": 4,
        }
        a = [q.signature() for q in spa_workload(**kwargs)]
        b = [q.signature() for q in spa_workload(**kwargs)]
        assert a == b

    def test_spj_workload_joins_are_connected(self):
        queries = spj_tpch_workload(num_queries=30, seed=7)
        for query in queries:
            sources = set(query.sources())
            if len(sources) > 1:
                joined = {query.joins[0].left_source}
                for join in query.joins:
                    assert join.left_source in joined or join.right_source in joined
                    joined |= {join.left_source, join.right_source}
                assert joined == sources
            for table in query.tables:
                assert isinstance(table.predicate, RangePredicate)

    def test_spj_workload_source_renaming(self):
        queries = spj_tpch_workload(num_queries=20, seed=7, source_names={"lineitem": "lineitem_json"})
        renamed = [q for q in queries if "lineitem_json" in q.sources()]
        assert renamed and all("lineitem" not in q.sources() for q in renamed)

    def test_symantec_workload_fractions(self):
        queries = symantec_mixed_workload(200, nested_fraction=0.0, json_fraction=1.0, join_fraction=0.0, seed=3)
        assert all(q.sources() == ["spam_json"] for q in queries)
        for query in queries:
            fields = query.tables[0].predicate.referenced_fields()
            assert not any(SYMANTEC_JSON_SCHEMA.is_nested_path(f) for f in fields)
        with_joins = symantec_mixed_workload(100, join_fraction=1.0, seed=3)
        assert all(len(q.tables) == 2 for q in with_joins)

    def test_yelp_workload_sources(self):
        queries = yelp_spa_workload(60, nested_fraction=0.5, seed=5)
        assert {q.sources()[0] for q in queries} <= {"business", "user", "review"}
        ranges = SYMANTEC_FIELD_RANGES["spam_json"]
        assert ranges["spam_score"] == (0.0, 1.0)
