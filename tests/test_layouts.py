"""Tests for the cache layouts: striping, assembly, scans, conversion."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.compiler import compile_batch_predicate
from repro.engine.expressions import RangePredicate
from repro.engine.types import FLOAT, INT, STRING, Field, ListType, RecordType
from repro.layouts import (
    ColumnarLayout,
    ParquetLayout,
    RowLayout,
    build_layout,
    convert_layout,
    stripe_records,
)
from repro.layouts.assembly import assemble_records, assemble_rows, repetition_group
from repro.layouts.striping import column_levels, prune_schema
from tests.oracle import flatten

SCHEMA = RecordType(
    [
        Field("key", INT),
        Field("total", FLOAT),
        Field("info", RecordType([Field("city", STRING)])),
        Field("items", ListType(RecordType([Field("q", INT), Field("p", FLOAT)]))),
    ]
)

RECORDS = [
    {"key": 1, "total": 10.0, "info": {"city": "a"}, "items": [{"q": 1, "p": 0.5}, {"q": 2, "p": 1.5}]},
    {"key": 2, "total": 20.0, "info": {"city": "b"}, "items": []},
    {"key": 3, "total": 30.0, "info": {"city": "c"}, "items": [{"q": 7, "p": 7.5}]},
]

FIELDS = SCHEMA.leaf_paths()


def expected_rows(records=RECORDS, fields=FIELDS):
    """The oracle's flattening of ``records`` (independent of the layouts)."""
    return [{f: row[f] for f in fields} for record in records for row in flatten(record, SCHEMA)]


class TestStriping:
    def test_column_levels(self):
        assert column_levels(SCHEMA, "key") == (0, 1)
        assert column_levels(SCHEMA, "info.city") == (0, 2)
        assert column_levels(SCHEMA, "items.q") == (1, 3)

    def test_prune_schema(self):
        pruned = prune_schema(SCHEMA, ["key", "items.q"])
        assert pruned.leaf_paths() == ["key", "items.q"]

    def test_non_nested_columns_have_one_entry_per_record(self):
        columns = stripe_records(RECORDS, SCHEMA, FIELDS)
        assert columns["key"].entry_count == len(RECORDS)
        assert columns["total"].repetition_levels == [0, 0, 0]

    def test_nested_column_repetition_levels(self):
        columns = stripe_records(RECORDS, SCHEMA, FIELDS)
        q = columns["items.q"]
        # record 1: two items (rep 0 then 1); record 2: placeholder; record 3: one item
        assert q.repetition_levels == [0, 1, 0, 0]
        assert q.values == [1, 2, None, 7]
        assert q.definition_levels[2] < q.max_definition

    def test_record_ranges_cover_all_entries(self):
        columns = stripe_records(RECORDS, SCHEMA, FIELDS)
        for column in columns.values():
            assert column.record_ranges[0][0] == 0
            assert column.record_ranges[-1][1] == column.entry_count


class TestAssembly:
    def test_repetition_group(self):
        assert repetition_group(SCHEMA, "items.q") == "items"
        assert repetition_group(SCHEMA, "key") is None

    def test_assemble_rows_matches_flattening(self):
        columns = stripe_records(RECORDS, SCHEMA, FIELDS)
        assert list(assemble_rows(columns, SCHEMA, FIELDS)) == expected_rows()

    def test_assemble_records_round_trip(self):
        columns = stripe_records(RECORDS, SCHEMA, FIELDS)
        assert list(assemble_records(columns, SCHEMA, FIELDS)) == RECORDS

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.fixed_dictionaries(
                {
                    "key": st.integers(-50, 50),
                    "total": st.floats(0, 100),
                    "info": st.fixed_dictionaries({"city": st.text(max_size=3)}),
                    "items": st.lists(
                        st.fixed_dictionaries(
                            {"q": st.integers(0, 9), "p": st.floats(0, 10)}
                        ),
                        max_size=4,
                    ),
                }
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_stripe_assemble_round_trip_property(self, records):
        columns = stripe_records(records, SCHEMA, FIELDS)
        assembled = list(assemble_rows(columns, SCHEMA, FIELDS))
        assert assembled == expected_rows(records)


class TestLayouts:
    @pytest.mark.parametrize("name", ["row", "columnar", "parquet"])
    def test_scan_equivalence_across_layouts(self, name):
        layout = build_layout(name, SCHEMA, FIELDS, records=RECORDS)
        assert sorted(layout.scan(), key=str) == sorted(expected_rows(), key=str)
        assert layout.flattened_row_count == len(expected_rows())
        assert layout.record_count == len(RECORDS)
        assert layout.nbytes > 0
        assert layout.supports_fields(["key", "items.q"])
        assert not layout.supports_fields(["unknown"])

    def test_parquet_flat_path_is_per_record(self):
        layout = build_layout("parquet", SCHEMA, FIELDS, records=RECORDS)
        rows = list(layout.scan(fields=["key", "total"]))
        assert len(rows) == len(RECORDS)

    def test_columnar_dedupe_records(self):
        layout = build_layout("columnar", SCHEMA, FIELDS, records=RECORDS)
        (batch,) = layout.scan_batches(fields=["key"], dedupe_records=True)
        assert batch.column("key") == [1, 2, 3]

    def test_batch_predicate_over_a_scanned_batch(self):
        layout = build_layout("columnar", SCHEMA, FIELDS, records=RECORDS)
        predicate = compile_batch_predicate(RangePredicate("items.q", 2, 10))
        (batch,) = layout.scan_batches(fields=["items.q"])
        kept = batch.take(np.nonzero(predicate(batch))[0])
        assert sorted(kept.column("items.q")) == [2, 7]

    def test_vectorized_range_filter_columnar(self):
        layout = build_layout("columnar", SCHEMA, FIELDS, records=RECORDS)
        assert layout.supports_range_filter(["total", "items.q"])
        batch = layout.range_filtered_batch({"total": (15.0, 35.0)}, fields=["key"])
        assert sorted(batch.column("key")) == [2, 3]
        assert not layout.supports_range_filter(["info.city"])

    def test_vectorized_range_filter_parquet_flat_columns(self):
        layout = build_layout("parquet", SCHEMA, FIELDS, records=RECORDS)
        assert layout.supports_range_filter(["total"])
        batch = layout.range_filtered_batch({"total": (5.0, 25.0)}, fields=["key", "total"])
        assert batch.to_rows() == [{"key": 1, "total": 10.0}, {"key": 2, "total": 20.0}]

    def test_vectorized_range_filter_parquet_nested_columns(self):
        # Nested numeric columns of one aligned repetition group now take the
        # entry-granular striped range path (no assembly); string columns and
        # cross-group requests still refuse.
        layout = build_layout("parquet", SCHEMA, FIELDS, records=RECORDS)
        assert layout.supports_range_filter(["items.q"])
        assert layout.supports_range_filter(["key", "items.q", "items.p"])
        assert not layout.supports_range_filter(["info.city", "items.q"])
        expected = [
            {f: row.get(f) for f in ("key", "items.q", "items.p")}
            for row in expected_rows(fields=["key", "items.q", "items.p"])
            if row["items.q"] is not None and 2.0 <= row["items.q"] <= 9.0
        ]
        batch = layout.range_filtered_batch(
            {"items.q": (2.0, 9.0)}, fields=["key", "items.q", "items.p"]
        )
        assert batch.to_rows() == expected

    def test_flat_relational_rows(self):
        schema = RecordType([Field("a", INT), Field("b", FLOAT)])
        rows = [{"a": i, "b": i * 0.5} for i in range(10)]
        for name in ("row", "columnar", "parquet"):
            layout = build_layout(name, schema, schema.field_names(), rows=rows)
            assert list(layout.scan()) == rows

    def test_build_layout_requires_data(self):
        with pytest.raises(ValueError):
            build_layout("columnar", SCHEMA, FIELDS)
        with pytest.raises(ValueError):
            build_layout("unknown", SCHEMA, FIELDS, records=RECORDS)


NULLABLE_SCHEMA = RecordType([Field("id", INT), Field("v", FLOAT), Field("w", FLOAT)])
NULLABLE_ROWS = [
    {"id": 1, "v": 1.5, "w": 10.0},
    {"id": 2, "v": None, "w": 20.0},
    {"id": 3, "v": 3.5, "w": None},
    {"id": 4, "v": None, "w": 40.0},
    {"id": 5, "v": 5.5, "w": 50.0},
]


class TestParquetBatchFastPath:
    """The vectorized parquet scan paths: no assembly for flat fields, NULL
    alignment in the float64 views, and mask-before-materialize filtering."""

    def _no_assembly(self, monkeypatch):
        """Make any call into the row/record assembly machinery fail loudly."""
        import repro.layouts.parquet as parquet_module

        def boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("flat fast path must not assemble rows/records")

        monkeypatch.setattr(parquet_module, "assemble_records", boom)
        monkeypatch.setattr(parquet_module, "assemble_rows", boom)

    def test_flat_scan_batches_skip_assembly(self, monkeypatch):
        layout = build_layout("parquet", SCHEMA, FIELDS, records=RECORDS)
        self._no_assembly(monkeypatch)
        batches = list(layout.scan_batches(fields=["key", "total"], batch_size=2))
        assert [batch.row_count for batch in batches] == [2, 1]
        rows = [row for batch in batches for row in batch.iter_rows()]
        assert rows == list(layout.scan(fields=["key", "total"]))

    def test_flat_scan_batches_preseed_numeric_views(self, monkeypatch):
        layout = build_layout("parquet", SCHEMA, FIELDS, records=RECORDS)
        self._no_assembly(monkeypatch)
        (batch,) = layout.scan_batches(fields=["key", "total"], numeric_fields=["total"])
        # The view comes pre-seeded from the layout's cached array: identical
        # values, and present without touching the batch's lazy builder.
        assert batch._numeric["total"].tolist() == [10.0, 20.0, 30.0]

    def test_nested_scan_batches_match_scan(self):
        layout = build_layout("parquet", SCHEMA, FIELDS, records=RECORDS)
        wanted = ["key", "items.q", "items.p"]
        rows = [row for batch in layout.scan_batches(fields=wanted, batch_size=2) for row in batch.iter_rows()]
        assert rows == list(layout.scan(fields=wanted))

    def test_range_filtered_batch_matches_a_plain_filter(self):
        layout = build_layout("parquet", SCHEMA, FIELDS, records=RECORDS)
        batch = layout.range_filtered_batch({"total": (15.0, 35.0)}, fields=["key", "total"])
        assert batch.to_rows() == [
            {"key": r["key"], "total": r["total"]} for r in RECORDS if 15.0 <= r["total"] <= 35.0
        ]

    def test_numeric_array_keeps_nulls_aligned(self):
        """Regression: NULLs become NaN at their own record position, never
        skipped, so masks over several columns stay row-aligned."""
        layout = build_layout(
            "parquet", NULLABLE_SCHEMA, NULLABLE_SCHEMA.field_names(), rows=NULLABLE_ROWS
        )
        array = layout.numeric_array("v")
        assert len(array) == len(NULLABLE_ROWS)
        assert np.isnan(array[[1, 3]]).all()
        assert array[[0, 2, 4]].tolist() == [1.5, 3.5, 5.5]
        # A conjunction across a nullable and a non-nullable column must pair
        # values belonging to the same record (misalignment would let id=2 or
        # id=4 leak in via a shifted v value).
        batch = layout.range_filtered_batch({"v": (0.0, 9.0), "w": (0.0, 45.0)}, fields=["id", "v", "w"])
        assert batch.to_rows() == [
            {"id": 1, "v": 1.5, "w": 10.0},
        ]
        batch = layout.range_filtered_batch({"v": (0.0, 9.0), "w": (0.0, 45.0)}, fields=["id"])
        assert batch.to_rows() == [{"id": 1}]


class TestConversion:
    @pytest.mark.parametrize("source", ["row", "columnar", "parquet"])
    @pytest.mark.parametrize("target", ["row", "columnar", "parquet"])
    def test_conversion_preserves_rows(self, source, target):
        layout = build_layout(source, SCHEMA, FIELDS, records=RECORDS)
        converted, seconds = convert_layout(layout, target, SCHEMA)
        assert converted.layout_name == target
        assert seconds >= 0.0
        assert sorted(converted.scan(), key=str) == sorted(expected_rows(), key=str)

    def test_same_target_is_noop(self):
        layout = build_layout("columnar", SCHEMA, FIELDS, records=RECORDS)
        converted, seconds = convert_layout(layout, "columnar")
        assert converted is layout and seconds == 0.0

    def test_unknown_target_rejected(self):
        layout = build_layout("columnar", SCHEMA, FIELDS, records=RECORDS)
        with pytest.raises(ValueError):
            convert_layout(layout, "arrow")
