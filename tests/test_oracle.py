"""The reference oracle, pinned by hand-computed answers.

Every other parity suite trusts ``tests/oracle.py``; these cases are what the
oracle itself is trusted by.  Each expected value was worked out by hand from
the literal files written below — none of them comes from running the engine.
"""

from __future__ import annotations

import json

import pytest

from repro import AggregateSpec, And, Comparison, FieldRef, JoinSpec, Literal, Not, Query, TableRef
from repro.engine.expressions import Arithmetic, RangePredicate
from repro.engine.types import INT, STRING, Field, ListType, RecordType
from repro.formats.datafile import DataSourceCatalog
from tests.oracle import Oracle, flatten, group_rows, join_rows, leaf_paths

PEOPLE = RecordType([Field("id", INT), Field("age", INT), Field("city", STRING)])
#   id | age | city            (blank line and short last line are deliberate)
PEOPLE_CSV = "1|30|rome\n2||oslo\n\n3|0|\n4|41\n"

BASKETS = RecordType(
    [
        Field("b", INT),
        Field("owner", INT),
        Field("items", ListType(RecordType([Field("sku", STRING), Field("qty", INT)]))),
    ]
)
BASKET_RECORDS = [
    {"b": 1, "owner": 1, "items": [{"sku": "x", "qty": 2}, {"sku": "y", "qty": 5}]},
    {"b": 2, "owner": 2, "items": []},  # empty collection
    {"b": 3, "owner": 9, "items": [None]},  # a collection holding one null element
    {"b": 4, "owner": None, "items": [{"sku": "x", "qty": None}, {"sku": "z", "qty": 7}]},
    {"b": 5, "owner": 1},  # collection missing altogether
]


@pytest.fixture()
def oracle(tmp_path):
    (tmp_path / "people.csv").write_text(PEOPLE_CSV, encoding="utf-8")
    (tmp_path / "baskets.json").write_text(
        "\n".join(json.dumps(record) for record in BASKET_RECORDS) + "\n\n", encoding="utf-8"
    )
    catalog = DataSourceCatalog()
    catalog.register_csv("people", tmp_path / "people.csv", PEOPLE)
    catalog.register_json("baskets", tmp_path / "baskets.json", BASKETS)
    return Oracle(catalog)


def select(source, predicate=None, **kwargs):
    return Query(tables=[TableRef(source, predicate)], **kwargs)


def agg(func, path):
    return AggregateSpec(func, FieldRef(path), alias=func)


# ---------------------------------------------------------------------------
# Parsing and flattening
# ---------------------------------------------------------------------------
def test_csv_blank_lines_empty_cells_and_short_lines(oracle):
    assert [rows[0] for rows in oracle.record_rows("people")] == [
        {"id": 1, "age": 30, "city": "rome"},
        {"id": 2, "age": None, "city": "oslo"},
        {"id": 3, "age": 0, "city": None},
        {"id": 4, "age": 41, "city": None},
    ]


def test_leaf_paths_mark_what_crosses_a_collection():
    assert list(leaf_paths(BASKETS)) == [
        ("b", False), ("owner", False), ("items.sku", True), ("items.qty", True),
    ]


def test_empty_null_element_and_missing_collections_each_keep_one_null_row(oracle):
    per_record = oracle.record_rows("baskets")
    assert [len(rows) for rows in per_record] == [2, 1, 1, 2, 1]
    null_row = {"items.sku": None, "items.qty": None}
    assert per_record[1] == [{"b": 2, "owner": 2, **null_row}]  # []
    assert per_record[2] == [{"b": 3, "owner": 9, **null_row}]  # [None]
    assert per_record[4] == [{"b": 5, "owner": 1, **null_row}]  # missing
    assert per_record[0][1] == {"b": 1, "owner": 1, "items.sku": "y", "items.qty": 5}


def test_independent_collections_cross_and_inner_lists_unnest_fully():
    schema = RecordType(
        [Field("a", ListType(INT)), Field("m", ListType(RecordType([Field("n", ListType(INT))])))]
    )
    record = {"a": [1, 2], "m": [{"n": [7, 8]}, {"n": []}]}
    assert flatten(record, schema) == [
        {"a": 1, "m.n": 7}, {"a": 1, "m.n": 8}, {"a": 1, "m.n": None},
        {"a": 2, "m.n": 7}, {"a": 2, "m.n": 8}, {"a": 2, "m.n": None},
    ]


# ---------------------------------------------------------------------------
# Predicates and nulls
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    ("predicate", "ids"),
    [
        (Comparison(">", FieldRef("age"), Literal(10)), [1, 4]),
        (Comparison("<=", FieldRef("age"), Literal(30)), [1, 3]),  # null age is not <= 30
        (Comparison("!=", FieldRef("age"), Literal(30)), [3, 4]),  # ... nor != 30
        (Not(Comparison("!=", FieldRef("age"), Literal(30))), [1, 2]),  # NOT flips the null row
        (Comparison("==", FieldRef("city"), Literal("oslo")), [2]),
        (RangePredicate("age", 0, 30), [1, 3]),  # closed on both ends
        (RangePredicate("age", 0, 30, low_inclusive=False, high_inclusive=False), []),
        (Comparison(">", Arithmetic("+", FieldRef("age"), FieldRef("id")), Literal(30)), [1, 4]),
        (None, [1, 2, 3, 4]),
    ],
)
def test_null_comparisons_are_false(oracle, predicate, ids):
    query = select("people", predicate, aggregates=[agg("count", "id"), agg("sum", "id")])
    assert oracle.evaluate(query) == [{"count": len(ids), "sum": float(sum(ids))}]


def test_division_by_zero_raises_and_a_null_divisor_does_not(oracle):
    by_age = Comparison(">", Arithmetic("/", Literal(60), FieldRef("age")), Literal(1.5))
    with pytest.raises(ZeroDivisionError):  # id 3 has age 0
        oracle.evaluate(select("people", by_age))
    guarded = Comparison(">", Arithmetic("/", FieldRef("id"), FieldRef("age")), Literal(0.05))
    positive = RangePredicate("age", 1, 100)
    # 1/30 = 0.033 fails, 4/41 = 0.098 passes; the range guards id 3, null skips id 2
    assert oracle.evaluate(select("people", And([positive, guarded]))) == [{"age": 41, "id": 4}]


def test_string_against_number_raises_type_error(oracle):
    with pytest.raises(TypeError):
        oracle.evaluate(select("people", Comparison("<", FieldRef("city"), Literal(3))))


def test_bare_scan_returns_every_leaf(oracle):
    assert oracle.evaluate(select("people"))[0] == {"id": 1, "age": 30, "city": "rome"}
    assert len(oracle.evaluate(select("baskets"))) == 7  # row-granular: every flattened row


# ---------------------------------------------------------------------------
# Record-level answers vs nested-leaf answers
# ---------------------------------------------------------------------------
def test_no_nested_field_referenced_answers_once_per_record(oracle):
    # Baskets 1 and 4 flatten to two rows each, but the query reads only parents.
    specs = [agg("count", "b"), agg("sum", "b")]
    query = select("baskets", RangePredicate("b", 1, 4), aggregates=specs)
    assert oracle.evaluate(query) == [{"count": 4, "sum": 10.0}]
    assert oracle.evaluate(select("baskets", RangePredicate("b", 1, 4))) == [
        {"b": 1}, {"b": 2}, {"b": 3}, {"b": 4},
    ]


def test_nested_leaf_predicate_answers_per_flattened_row(oracle):
    specs = [agg("count", "b"), agg("sum", "items.qty")]
    query = select("baskets", RangePredicate("items.qty", 1, 9), aggregates=specs)
    assert oracle.evaluate(query) == [{"count": 3, "sum": 14.0}]  # qty 2, 5, 7
    assert oracle.evaluate(select("baskets", RangePredicate("items.qty", 5, 9))) == [
        {"items.qty": 5}, {"items.qty": 7},
    ]


def test_nested_field_only_in_the_aggregate_still_makes_it_row_granular(oracle):
    specs = [agg("count", "b"), agg("max", "items.qty")]
    query = select("baskets", RangePredicate("b", 1, 1), aggregates=specs)
    assert oracle.evaluate(query) == [{"count": 2, "max": 5}]


def test_nested_not_equal_skips_null_entries(oracle):
    not_five = Comparison("!=", FieldRef("items.qty"), Literal(5))
    query = select("baskets", not_five, aggregates=[agg("count", "b")])
    assert oracle.evaluate(query) == [{"count": 2}]  # qty 2 and 7; the four null rows never match


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------
def test_join_drops_null_keys_and_orders_by_probe_then_build():
    left = [{"k": 1, "a": "l0"}, {"k": None, "a": "l1"}, {"k": 2, "a": "l2"}, {"k": 1, "a": "l3"}]
    right = [{"j": 2, "b": "r0"}, {"j": 1, "b": "r1"}, {"j": None, "b": "r2"}]
    # right is smaller -> build side; left probes in its own order.
    assert join_rows(left, right, "k", "j") == [
        {"j": 1, "b": "r1", "k": 1, "a": "l0"},
        {"j": 2, "b": "r0", "k": 2, "a": "l2"},
        {"j": 1, "b": "r1", "k": 1, "a": "l3"},
    ]
    # Equal sizes: the left side builds, the right side probes.
    assert join_rows(left[:1], right[1:2], "k", "j") == [{"k": 1, "a": "l0", "j": 1, "b": "r1"}]


def test_join_keys_hash_like_a_dict():
    nan = float("nan")
    left = [{"k": 1, "a": 0}, {"k": "1", "a": 1}, {"k": nan, "a": 2}, {"k": True, "a": 3}]
    right = [{"j": 1.0, "b": 0}, {"j": "1", "b": 1}, {"j": nan, "b": 2}, {"j": float("nan"), "b": 3}]
    pairs = sorted((row["a"], row["b"]) for row in join_rows(left, right, "k", "j"))
    # 1 == 1.0 == True; "1" only matches "1"; the shared NaN object matches itself only.
    assert pairs == [(0, 0), (1, 1), (2, 2), (3, 0)]


def test_join_rejects_shared_non_key_columns_but_allows_a_shared_key_name():
    with pytest.raises(ValueError, match="overlapping non-key columns"):
        join_rows([{"k": 1, "x": 0}], [{"j": 1, "x": 1}], "k", "j")
    with pytest.raises(ValueError, match="overlapping non-key columns"):
        join_rows([{"k": 1}], [{"j": 1, "k": 9}], "k", "j")
    assert join_rows([{"k": 1, "a": 0}], [{"k": 1.0, "b": 1}], "k", "k") == [
        {"k": 1.0, "a": 0, "b": 1}  # the shared key carries the probe side's value
    ]
    assert join_rows([], [{"j": 1, "x": 1}], "k", "j") == []  # nothing to inspect, nothing to reject


def test_join_query_projects_each_side_and_drops_the_null_owner(oracle):
    query = Query(
        tables=[TableRef("baskets", RangePredicate("b", 1, 5)), TableRef("people")],
        joins=[JoinSpec("baskets", "owner", "people", "id")],
        aggregates=[agg("count", "b"), agg("sum", "age")],
        group_by=["city"],
    )
    # owners 1, 2, 9, None, 1 -> people 1 (rome, 30) twice and 2 (oslo, null age); 9 and None drop.
    # people (4 rows) is the smaller side and builds; baskets probe in file order: rome first.
    assert oracle.evaluate(query) == [
        {"city": "rome", "count": 2, "sum": 60.0},
        {"city": "oslo", "count": 1, "sum": 0.0},
    ]


def test_disconnected_join_graph_is_an_error(oracle):
    query = Query(tables=[TableRef("people"), TableRef("baskets")])
    with pytest.raises(ValueError, match="not connected"):
        oracle.evaluate(query)


# ---------------------------------------------------------------------------
# Grouping and aggregates
# ---------------------------------------------------------------------------
def test_all_null_groups_and_first_occurrence_order():
    rows = [
        {"g": "b", "v": None},
        {"g": "a", "v": 2},
        {"g": None, "v": 4},
        {"g": "b", "v": None},
        {"g": "a", "v": 0.5},
    ]
    specs = [agg(func, "v") for func in ("count", "sum", "avg", "min", "max")]
    assert group_rows(rows, specs, ["g"]) == [
        {"g": "b", "count": 0, "sum": 0.0, "avg": None, "min": None, "max": None},
        {"g": "a", "count": 2, "sum": 2.5, "avg": 1.25, "min": 0.5, "max": 2},
        {"g": None, "count": 1, "sum": 4.0, "avg": 4.0, "min": 4, "max": 4},
    ]


def test_global_aggregate_over_nothing_is_one_row_and_grouped_is_none():
    specs = [agg("count", "v"), agg("sum", "v"), agg("avg", "v")]
    assert group_rows([], specs) == [{"count": 0, "sum": 0.0, "avg": None}]
    assert group_rows([], specs, ["g"]) == []


def test_sum_folds_left_to_right_from_zero():
    rows = [{"v": 0.1}, {"v": 0.2}, {"v": 0.3}]
    assert group_rows(rows, [agg("sum", "v")]) == [{"sum": 0.1 + 0.2 + 0.3}]
    assert group_rows(rows, [agg("sum", "v")])[0]["sum"] != 0.1 + (0.2 + 0.3)
    assert isinstance(group_rows([{"v": 2}], [agg("sum", "v")])[0]["sum"], float)


def test_group_keys_merge_like_dict_keys():
    rows = [{"g": 1, "v": 1}, {"g": 1.0, "v": 2}, {"g": True, "v": 4}, {"g": 2, "v": 8}]
    assert group_rows(rows, [agg("sum", "v")], ["g"]) == [
        {"g": 1, "sum": 7.0},  # the first-seen key object represents the group
        {"g": 2, "sum": 8.0},
    ]


def test_oracle_imports_nothing_it_checks():
    import ast
    from pathlib import Path

    source = Path(__file__).with_name("oracle.py").read_text(encoding="utf-8")
    imported = {
        node.module if isinstance(node, ast.ImportFrom) else alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    banned = ("repro.engine.compiler", "repro.engine.batch", "repro.engine.operators",
              "repro.layouts", "repro.core")
    assert not [name for name in imported if name and name.startswith(banned)]
    # 200 lines of semantics + the comparison contract (``same_rows``, PR 20)
    assert len(source.splitlines()) <= 230
