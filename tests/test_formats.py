"""Tests for the raw-format plugins and positional maps."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.types import FLOAT, INT, STRING, Field, ListType, RecordType
from repro.formats import (
    CSVPlugin,
    DataSource,
    DataSourceCatalog,
    JSONPlugin,
    write_csv,
    write_json_lines,
)

FLAT = RecordType([Field("id", INT), Field("value", FLOAT), Field("name", STRING)])
NESTED = RecordType(
    [Field("key", INT), Field("items", ListType(RecordType([Field("q", INT), Field("p", FLOAT)])))]
)


def _flat_rows(n=50):
    return [{"id": i, "value": i * 1.5, "name": f"name{i}"} for i in range(n)]


def _nested_records(n=30):
    return [
        {"key": i, "items": [{"q": j, "p": j * 0.25} for j in range(i % 4)]} for i in range(n)
    ]


class TestCSVPlugin:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "flat.csv"
        assert write_csv(path, FLAT, _flat_rows()) == 50
        plugin = CSVPlugin(path, FLAT)
        rows = list(plugin.scan())
        assert rows[:2] == [{"id": 0, "value": 0.0, "name": "name0"}, {"id": 1, "value": 1.5, "name": "name1"}]
        assert len(rows) == 50

    def test_partial_field_parse(self, tmp_path):
        path = tmp_path / "flat.csv"
        write_csv(path, FLAT, _flat_rows())
        plugin = CSVPlugin(path, FLAT)
        rows = list(plugin.scan(fields=["value"]))
        assert rows[3] == {"value": 4.5}

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "flat.csv"
        write_csv(path, FLAT, _flat_rows())
        with pytest.raises(KeyError):
            list(CSVPlugin(path, FLAT).scan(fields=["nope"]))

    def test_positional_map_and_read_record_batches(self, tmp_path):
        path = tmp_path / "flat.csv"
        write_csv(path, FLAT, _flat_rows())
        plugin = CSVPlugin(path, FLAT)
        assert plugin.record_count() == 50
        assert plugin.positional_map.complete
        # Records come back in the order asked for, batch_size at a time.
        batches = list(plugin.read_record_batches([5, 49, 10], batch_size=2))
        assert [batch.column("id") for batch in batches] == [[5, 49], [10]]
        assert batches[0].to_rows()[1] == {"id": 49, "value": 73.5, "name": "name49"}

    def test_payload_converts_the_remaining_fields_from_the_same_split(self, tmp_path):
        path = tmp_path / "flat.csv"
        write_csv(path, FLAT, _flat_rows())
        plugin = CSVPlugin(path, FLAT)
        batch = next(plugin.scan_batches(["id"], batch_size=4, with_payload=True))
        assert batch.columns == {"id": [0, 1, 2, 3]}
        assert batch.records[2] == ["2", "3.0", "name2"]
        rest, counts = plugin.columns_from_payload(batch.records[2:], ["value", "name"])
        assert rest == {"value": [3.0, 4.5], "name": ["name2", "name3"]} and counts is None
        # Null-free numeric columns arrive with their float64 view seeded.
        assert batch.numeric_view("id").tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_missing_values_parse_to_none(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("1||x\n2|3.5|\n")
        plugin = CSVPlugin(path, FLAT)
        rows = list(plugin.scan())
        assert rows[0]["value"] is None
        assert rows[1]["name"] is None

    def test_nested_schema_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            CSVPlugin(tmp_path / "x.csv", NESTED)


class TestJSONPlugin:
    def test_flattened_scan(self, tmp_path):
        path = tmp_path / "nested.json"
        write_json_lines(path, _nested_records())
        plugin = JSONPlugin(path, NESTED)
        rows = list(plugin.scan())
        # each record contributes max(1, len(items)) rows
        assert len(rows) == sum(max(1, i % 4) for i in range(30))
        assert rows[0] == {"key": 0, "items.q": None, "items.p": None}

    def test_scan_records_preserves_nesting(self, tmp_path):
        path = tmp_path / "nested.json"
        write_json_lines(path, _nested_records())
        plugin = JSONPlugin(path, NESTED)
        records = list(plugin.scan_records())
        assert records[3]["items"] == [{"q": 0, "p": 0.0}, {"q": 1, "p": 0.25}, {"q": 2, "p": 0.5}]

    def test_read_record_rows_grouping(self, tmp_path):
        path = tmp_path / "nested.json"
        write_json_lines(path, _nested_records())
        source = DataSource("nested", path, "json", NESTED)
        groups = list(source.read_record_rows([2, 3]))
        assert len(groups) == 2
        assert len(groups[1]) == 3  # record 3 has 3 items
        assert groups[1][2] == {"key": 3, "items.q": 2, "items.p": 0.5}
        (batch,) = source.read_record_batches([2, 3], ["key"])
        assert batch.record_row_counts == [2, 3] and batch.column("key") == [2, 2, 3, 3, 3]

    def test_field_restriction(self, tmp_path):
        path = tmp_path / "nested.json"
        write_json_lines(path, _nested_records())
        rows = list(JSONPlugin(path, NESTED).scan(fields=["key"]))
        assert all(set(row) == {"key"} for row in rows)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=20))
    def test_json_round_trip_property(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("h") / "vals.json"
        records = [{"v": v, "tag": [v, v + 1]} for v in values]
        write_json_lines(path, records)
        schema = RecordType([Field("v", INT), Field("tag", ListType(INT))])
        plugin = JSONPlugin(path, schema)
        assert list(plugin.scan_records()) == records


class TestDataSourceCatalog:
    def test_register_and_lookup(self, tmp_path):
        write_csv(tmp_path / "flat.csv", FLAT, _flat_rows(10))
        catalog = DataSourceCatalog()
        source = catalog.register_csv("flat", tmp_path / "flat.csv", FLAT)
        assert catalog.get("flat") is source
        assert "flat" in catalog and len(catalog) == 1
        assert not source.is_nested()
        with pytest.raises(ValueError):
            catalog.register_csv("flat", tmp_path / "flat.csv", FLAT)
        with pytest.raises(KeyError):
            catalog.get("missing")

    def test_bad_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            DataSource("x", tmp_path / "x.bin", "parquet", FLAT)
