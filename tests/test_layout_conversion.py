"""Layout conversion goes column to column, and refuses what it cannot regroup.

A seeded property over the random schemas and records of
``tests/test_striping_properties.py`` checks both directions against a layout
built straight from the same records: Parquet -> columnar for every supported
shape, columnar -> Parquet for schemas with at most one list.  Flattening
multiplies rows by every list, so a columnar layout over two lists cannot be
regrouped into records; the pins below check that such an item is refused by
``convert_layout``, never proposed by the layout selector, and answers like
caching off when the engine runs it.  A Parquet item over two lists keeps both
lists' counts, so it holds the columnar item's rows whichever lists a scan
reads, and converts to columnar without losing any.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro import AggregateSpec, FieldRef, Query, QueryEngine, RangePredicate, ReCacheConfig
from repro.core.cache_entry import CacheEntry, CacheKey, LayoutObservation
from repro.core.layout_selector import LayoutSelector
from repro.engine.types import INT, Field, ListType, RecordType
from repro.formats import write_json_lines
from repro.layouts import build_layout, convert_layout
from tests.test_striping_properties import random_record, random_schema

TWO_LISTS = RecordType(
    [
        Field("id", INT),
        Field("fans", INT),
        Field("a", ListType(INT)),
        Field("b", ListType(INT)),
    ]
)
ONE_LIST = RecordType([Field("id", INT), Field("fans", INT), Field("a", ListType(INT))])

#: the smallest form of the hole: a columnar layout over these scans 8 rows
TWO_LIST_RECORDS = [
    {"id": 1, "fans": 3, "a": [1, 2], "b": [10, 20, 30]},
    {"id": 2, "fans": 5, "a": [], "b": [5]},
    {"id": 3, "fans": 8, "a": [7], "b": []},
]


def scanned_rows(layout) -> list[dict]:
    return [row for batch in layout.scan_batches() for row in batch.iter_rows()]


def at_most_one_list(schema: RecordType) -> RecordType:
    """``schema`` without every list field after its first one."""
    kept, seen_list = [], False
    for field in schema.fields:
        if isinstance(field.dtype, ListType):
            if seen_list:
                continue
            seen_list = True
        kept.append(field)
    return RecordType(kept)


def assert_same_shape(converted, reference) -> None:
    assert converted.record_count == reference.record_count
    assert converted.flattened_row_count == reference.flattened_row_count
    assert converted.record_row_counts == reference.record_row_counts
    assert converted.nbytes == reference.nbytes


# ---------------------------------------------------------------------------
# The conversion property
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(25))
def test_parquet_to_columnar_property(seed):
    rng = random.Random(5000 + seed)
    schema = random_schema(rng)
    records = [random_record(rng, schema) for _ in range(rng.randint(1, 30))]
    fields = schema.leaf_paths()
    parquet = build_layout("parquet", schema, fields, records=records)

    converted, seconds = convert_layout(parquet, "columnar")

    assert converted.layout_name == "columnar" and seconds >= 0.0
    assert scanned_rows(converted) == scanned_rows(parquet)
    assert_same_shape(converted, build_layout("columnar", schema, fields, records=records))


@pytest.mark.parametrize("seed", range(25))
def test_columnar_to_parquet_property(seed):
    rng = random.Random(6000 + seed)
    schema = at_most_one_list(random_schema(rng))
    records = [random_record(rng, schema) for _ in range(rng.randint(1, 30))]
    fields = schema.leaf_paths()
    columnar = build_layout("columnar", schema, fields, records=records)

    converted, seconds = convert_layout(columnar, "parquet")

    assert converted.layout_name == "parquet" and seconds >= 0.0
    assert scanned_rows(converted) == scanned_rows(columnar)
    assert_same_shape(converted, build_layout("parquet", schema, fields, records=records))
    back, _ = convert_layout(converted, "columnar")
    assert {f: back.column(f) for f in fields} == {f: columnar.column(f) for f in fields}
    assert back.record_row_counts == columnar.record_row_counts


@pytest.mark.parametrize("seed", range(10))
def test_two_list_columnar_is_refused_property(seed):
    rng = random.Random(7000 + seed)
    schema = RecordType(
        list(random_schema(rng).fields)
        + [Field("l0", ListType(INT)), Field("l1", ListType(INT))]
    )
    records = [random_record(rng, schema) for _ in range(rng.randint(1, 10))]
    columnar = build_layout("columnar", schema, schema.leaf_paths(), records=records)
    with pytest.raises(ValueError):
        convert_layout(columnar, "parquet")


# ---------------------------------------------------------------------------
# Pins: a Parquet item over two lists holds the columnar item's rows
# ---------------------------------------------------------------------------
#: every field list that reads list ``a``, in schema order
A_FIELD_LISTS = [
    [field for field in TWO_LISTS.leaf_paths() if field == "a" or field in others]
    for size in range(4)
    for others in itertools.combinations(["id", "fans", "b"], size)
]


@pytest.mark.parametrize("fields", A_FIELD_LISTS, ids="-".join)
def test_two_list_parquet_holds_the_columnar_rows(fields):
    parquet = build_layout("parquet", TWO_LISTS, fields, records=TWO_LIST_RECORDS)
    columnar = build_layout("columnar", TWO_LISTS, fields, records=TWO_LIST_RECORDS)
    assert parquet.record_row_counts == columnar.record_row_counts == [6, 1, 1]
    assert parquet.flattened_row_count == 8
    assert scanned_rows(parquet) == scanned_rows(columnar)
    assert parquet.supports_range_filter(fields)
    ranges = {"a": (1.0, 7.0)}
    assert (
        parquet.range_filtered_batch(ranges, fields).to_rows()
        == columnar.range_filtered_batch(ranges, fields).to_rows()
    )


def test_two_list_parquet_converts_to_all_rows():
    parquet = build_layout("parquet", TWO_LISTS, ["a"], records=TWO_LIST_RECORDS)
    converted, _ = convert_layout(parquet, "columnar")
    assert converted.flattened_row_count == 8
    assert scanned_rows(converted) == [{"a": a} for a in (1, 1, 1, 2, 2, 2, None, 7)]
    assert converted.record_row_counts == [6, 1, 1]


def test_flat_only_parquet_converts_to_the_columnar_rows():
    """A Parquet item caching only the flat leaves of a two-list schema
    scans one row per record; converted, it holds each record's flattened
    rows, as the columnar item built from the records does, and a
    record-level scan of it reads one row per record."""
    fields = ["id", "fans"]
    parquet = build_layout("parquet", TWO_LISTS, fields, records=TWO_LIST_RECORDS)
    columnar = build_layout("columnar", TWO_LISTS, fields, records=TWO_LIST_RECORDS)
    converted, _ = convert_layout(parquet, "columnar")
    assert converted.record_row_counts == columnar.record_row_counts == [6, 1, 1]
    assert scanned_rows(converted) == scanned_rows(columnar)
    assert len(scanned_rows(converted)) == 8
    deduped = [
        row for batch in converted.scan_batches(dedupe_records=True) for row in batch.iter_rows()
    ]
    assert deduped == [{"id": 1, "fans": 3}, {"id": 2, "fans": 5}, {"id": 3, "fans": 8}]


# ---------------------------------------------------------------------------
# Pins: the two-list columnar item stays columnar
# ---------------------------------------------------------------------------
def test_two_list_columnar_to_parquet_raises():
    layout = build_layout("columnar", TWO_LISTS, TWO_LISTS.leaf_paths(), records=TWO_LIST_RECORDS)
    assert layout.flattened_row_count == 8
    with pytest.raises(ValueError):
        convert_layout(layout, "parquet")


def _columnar_entry(schema: RecordType, records: list[dict]) -> CacheEntry:
    fields = schema.leaf_paths()
    entry = CacheEntry(
        key=CacheKey.for_select("src", None),
        source="src",
        source_format="json",
        predicate=None,
        fields=fields,
        layout=build_layout("columnar", schema, fields, records=records),
    )
    entry.record_creation(0, 1.0, 0.5)
    return entry


def _favour_parquet(selector: LayoutSelector, entry: CacheEntry) -> None:
    """Flat-only queries paying a large data cost over every flattened row."""
    rows = entry.layout.flattened_row_count
    for index in range(6):
        selector.observe(
            entry,
            LayoutObservation(
                query_index=index,
                layout_name="columnar",
                data_cost=50.0,
                compute_cost=0.1,
                rows_accessed=rows,
                columns_accessed=2,
                accessed_nested=False,
            ),
        )


def test_selector_never_proposes_parquet_for_two_lists():
    # eight rows per record, so flat-only queries read an eighth as many in Parquet
    records = [{"id": i, "fans": i, "a": list(range(8)), "b": [i]} for i in range(20)]
    selector = LayoutSelector()
    single = _columnar_entry(ONE_LIST, records)
    _favour_parquet(selector, single)
    assert selector.decide(single).target_layout == "parquet"

    double = _columnar_entry(TWO_LISTS, records)
    _favour_parquet(selector, double)
    assert not selector.decide(double).should_switch


def two_list_records(count: int = 300, seed: int = 11) -> list[dict]:
    """Records of ``TWO_LISTS`` with zero to four elements in each list."""
    rng = random.Random(seed)
    return [
        {
            "id": i,
            "fans": rng.randint(0, 100),
            "a": [rng.randint(0, 50) for _ in range(rng.randint(0, 4))],
            "b": [rng.randint(0, 50) for _ in range(rng.randint(0, 4))],
        }
        for i in range(count)
    ]


def test_two_list_engine_answers_like_caching_off(tmp_path):
    write_json_lines(tmp_path / "two.json", two_list_records())
    queries = [Query.select_aggregate("two", None, [AggregateSpec("count", FieldRef("id"))])]
    for index in range(40):
        low = index % 50
        queries.append(
            Query.select_aggregate(
                "two", RangePredicate("fans", low, low + 40), [AggregateSpec("sum", FieldRef("fans"))]
            )
        )
    queries.append(
        Query.select_aggregate(
            "two", None, [AggregateSpec("sum", FieldRef("a")), AggregateSpec("count", FieldRef("b"))]
        )
    )

    def run(config: ReCacheConfig) -> list:
        engine = QueryEngine(config)
        engine.register_json("two", tmp_path / "two.json", TWO_LISTS)
        return [engine.execute(query).results for query in queries]

    cached = run(ReCacheConfig(admission="eager", default_nested_layout="columnar"))
    assert cached == run(ReCacheConfig(caching_enabled=False))


def test_list_in_a_list_reads_its_first_element_in_both_layouts():
    """A leaf under two repeated levels: Parquet reads the entry whose
    repetition level is at most 1, the first element the plan reads."""
    schema = RecordType(
        [
            Field("id", INT),
            Field("l", ListType(RecordType([Field("x", ListType(INT)), Field("y", INT)]))),
            Field("b", ListType(INT)),
        ]
    )
    records = [
        {"id": 1, "l": [{"x": [5, 6], "y": 1}, {"x": [], "y": 2}, {"y": 3}], "b": [8, 9]},
        {"id": 2, "l": [], "b": []},
        {"id": 3, "l": [{"x": [7], "y": 4}], "b": [1]},
    ]
    fields = schema.leaf_paths()
    parquet = build_layout("parquet", schema, fields, records=records)
    columnar = build_layout("columnar", schema, fields, records=records)
    assert parquet.record_row_counts == columnar.record_row_counts == [6, 1, 1]
    assert scanned_rows(parquet) == scanned_rows(columnar)
    assert [row["l.x"] for row in scanned_rows(parquet)] == [5, 5, None, None, None, None, None, 7]
    ranges = {"l.x": (5.0, 7.0)}
    assert (
        parquet.range_filtered_batch(ranges, fields).to_rows()
        == columnar.range_filtered_batch(ranges, fields).to_rows()
    )
