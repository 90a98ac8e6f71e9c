"""Unit tests for the nested data model (schemas, paths, flattening)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.engine.flatten import FlattenPlan, flatten_plan, row_indexes
from repro.engine.types import (
    FLOAT,
    INT,
    STRING,
    Field,
    ListType,
    RecordType,
)

NESTED = RecordType(
    [
        Field("a", INT),
        Field("b", FLOAT),
        Field("sub", RecordType([Field("x", INT), Field("y", STRING)])),
        Field("items", ListType(RecordType([Field("q", INT), Field("p", FLOAT)]))),
        Field("tags", ListType(INT)),
    ]
)


class TestSchemaPaths:
    def test_leaf_paths_in_schema_order(self):
        assert NESTED.leaf_paths() == ["a", "b", "sub.x", "sub.y", "items.q", "items.p", "tags"]

    def test_unknown_path_raises(self):
        with pytest.raises(KeyError):
            NESTED.is_nested_path("missing.field")

    def test_nested_path_detection(self):
        assert NESTED.is_nested_path("items.q")
        assert NESTED.is_nested_path("tags")
        assert not NESTED.is_nested_path("sub.x")
        assert not NESTED.is_nested_path("a")

    def test_nested_and_non_nested_partitions(self):
        assert set(NESTED.nested_paths()) == {"items.q", "items.p", "tags"}
        flat = set(NESTED.leaf_paths()) - set(NESTED.nested_paths())
        assert flat == {"a", "b", "sub.x", "sub.y"}

    def test_flattened_schema_is_flat(self):
        flat = NESTED.flattened()
        assert flat.is_flat()
        assert flat.field_names() == NESTED.leaf_paths()

    def test_duplicate_field_names_rejected(self):
        with pytest.raises(ValueError):
            RecordType([Field("a", INT), Field("a", FLOAT)])

    def test_type_equality_via_signature(self):
        other = RecordType([Field("a", INT), Field("b", FLOAT)])
        same = RecordType([Field("a", INT), Field("b", FLOAT)])
        assert other == same
        assert hash(other) == hash(same)
        assert other != NESTED


def flatten_record(record: dict, schema: RecordType) -> list[dict]:
    """One record's flattened rows over every leaf, through the schema's plan."""
    fields = schema.leaf_paths()
    columns, counts = FlattenPlan(schema).columns([record], fields)
    rows = [dict(zip(fields, values)) for values in zip(*(columns[f] for f in fields))]
    assert counts == [len(rows)]
    return rows


class TestFlattenPlan:
    def test_paper_example(self):
        # The flattening example of Section 4: {"a":1,"b":4,"c":[4,6,9]}
        schema = RecordType([Field("a", INT), Field("b", INT), Field("c", ListType(INT))])
        rows = flatten_record({"a": 1, "b": 4, "c": [4, 6, 9]}, schema)
        assert rows == [
            {"a": 1, "b": 4, "c": 4},
            {"a": 1, "b": 4, "c": 6},
            {"a": 1, "b": 4, "c": 9},
        ]

    def test_empty_list_contributes_single_row(self):
        record = {"a": 1, "b": 2.0, "sub": {"x": 3, "y": "s"}, "items": [], "tags": []}
        rows = flatten_record(record, NESTED)
        assert len(rows) == 1
        assert rows[0]["items.q"] is None
        assert rows[0]["tags"] is None
        assert rows[0]["sub.x"] == 3

    def test_cross_product_of_independent_lists(self):
        record = {
            "a": 1,
            "b": 2.0,
            "sub": {"x": 1, "y": "s"},
            "items": [{"q": 1, "p": 0.5}, {"q": 2, "p": 1.5}],
            "tags": [7, 8, 9],
        }
        rows = flatten_record(record, NESTED)
        assert len(rows) == 6
        assert {(r["items.q"], r["tags"]) for r in rows} == {
            (q, t) for q in (1, 2) for t in (7, 8, 9)
        }
        assert all(row["a"] == 1 for row in rows)

    def test_missing_fields_become_none(self):
        rows = flatten_record({"a": 5}, NESTED)
        assert rows[0]["b"] is None
        assert rows[0]["sub.y"] is None

    @given(
        st.lists(
            st.fixed_dictionaries({"q": st.integers(), "p": st.floats(allow_nan=False)}),
            max_size=5,
        ),
        st.integers(),
    )
    def test_row_count_matches_list_length(self, items, a):
        record = {"a": a, "b": 1.0, "sub": {"x": 0, "y": ""}, "items": items, "tags": [1]}
        rows = flatten_record(record, NESTED)
        assert len(rows) == max(1, len(items))
        assert all(row["a"] == a for row in rows)

    def test_lists_in_schema_order_and_counts(self):
        plan = FlattenPlan(NESTED)
        assert plan.lists == [("items",), ("tags",)]
        assert plan.list_of("items.p") == 0 and plan.list_of("tags") == 1
        assert plan.list_of("sub.x") is None
        records = [{"items": [{}, {}], "tags": []}, {"tags": [1, 2, 3]}]
        assert plan.list_counts(records).tolist() == [[2, 1], [1, 3]]
        assert plan.list_counts(records).dtype.name == "int32"

    def test_earlier_lists_vary_slowest(self):
        record = {"items": [{"q": 1}, {"q": 2}], "tags": [7, 8, 9]}
        rows = flatten_record(record, NESTED)
        assert [(row["items.q"], row["tags"]) for row in rows] == [
            (1, 7), (1, 8), (1, 9), (2, 7), (2, 8), (2, 9),
        ]

    def test_index_rule(self):
        # record 0: lists of 2 and 3 elements; record 1: 1 and 2
        counts = np.array([[2, 1], [3, 2]], dtype=np.int32)
        assert row_indexes(counts, None).tolist() == [0] * 6 + [1] * 2
        assert row_indexes(counts, 0).tolist() == [0, 0, 0, 1, 1, 1, 2, 2]
        assert row_indexes(counts, 1).tolist() == [0, 1, 2, 0, 1, 2, 3, 4]
        # one list: the identity
        assert row_indexes(counts[1:], 0).tolist() == list(range(5))

    def test_list_in_a_list_reads_its_first_element(self):
        schema = RecordType(
            [Field("k", INT), Field("l", ListType(RecordType([Field("x", ListType(INT))])))]
        )
        plan = FlattenPlan(schema)
        assert plan.lists == [("l",)]
        rows = flatten_record({"k": 1, "l": [{"x": [5, 6]}, {"x": []}, {}]}, schema)
        assert rows == [{"k": 1, "l.x": 5}, {"k": 1, "l.x": None}, {"k": 1, "l.x": None}]

    def test_field_outside_the_schema_reads_none(self):
        columns, counts = FlattenPlan(NESTED).columns(
            [{"a": 1, "tags": [1, 2]}], ["a", "nope"]
        )
        assert columns == {"a": [1, 1], "nope": [None, None]} and counts == [2]

    def test_plan_is_memoised_per_schema(self):
        same = RecordType(list(NESTED.fields))
        assert flatten_plan(same) is flatten_plan(NESTED)
