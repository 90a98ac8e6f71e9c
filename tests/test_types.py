"""Unit tests for the nested data model (schemas, paths, flattening)."""

import pytest
from hypothesis import given, strategies as st

from repro.engine.types import (
    FLOAT,
    INT,
    STRING,
    Field,
    ListType,
    RecordType,
    flatten_record,
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


class TestFlattenRecord:
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
