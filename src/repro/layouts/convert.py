"""Building cache layouts and converting a cached item between layouts.

Layout conversion is what ReCache performs when the layout selector decides a
cached item should switch representation (Section 4.2).  Conversion goes
through the flattened-row or nested-record form, and its wall-clock time is the
transformation cost ``T`` that the cost model bounds with equation (3).
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.engine.batch import RecordBatch
from repro.engine.types import RecordType, flatten_record
from repro.layouts.assembly import repetition_group
from repro.layouts.base import CacheLayout
from repro.layouts.columnar import ColumnarLayout
from repro.layouts.parquet import ParquetLayout

#: canonical names of the supported layouts
LAYOUT_NAMES = ("columnar", "parquet")


def build_layout(
    layout_name: str,
    schema: RecordType,
    fields: Sequence[str],
    rows: Sequence[dict] | None = None,
    records: Sequence[dict] | None = None,
    record_row_counts: Sequence[int] | None = None,
    columns: dict[str, list] | None = None,
) -> CacheLayout:
    """Build a layout from flattened columns, flattened rows or nested records.

    Callers provide whichever representation they already have.  The
    relational columnar layout is built from ``columns`` (one list per field — what
    the cold path produces, so it never assembles a row dictionary); rows are
    transposed and nested records flattened into columns first.  Parquet
    stripes nested records, regrouping rows into records when given rows.
    """
    if layout_name not in LAYOUT_NAMES:
        raise ValueError(f"unknown layout: {layout_name!r} (expected one of {LAYOUT_NAMES})")

    if layout_name == "parquet":
        if records is None:
            if rows is None:
                raise ValueError("parquet layout needs rows or records")
            records = unflatten_rows(rows, schema, fields, record_row_counts)
        return ParquetLayout.from_records(records, schema, fields)

    if columns is None:
        if rows is None:
            if records is None:
                raise ValueError("columnar layout needs columns, rows or records")
            rows, record_row_counts = flatten_records(records, schema, fields)
        columns = RecordBatch.from_rows(rows, fields).columns
    return ColumnarLayout(schema, fields, columns, record_row_counts)


def convert_layout(  # rowwise-fallback: layout conversion rebuilds the cache record by record (cold-path, off the scan loop)
    layout: CacheLayout, target_name: str, schema: RecordType | None = None
) -> tuple[CacheLayout, float]:
    """Convert a cached item to ``target_name``; returns ``(layout, seconds)``."""
    if target_name not in LAYOUT_NAMES:
        raise ValueError(f"unknown layout: {target_name!r} (expected one of {LAYOUT_NAMES})")
    schema = schema or layout.schema
    started = time.perf_counter()
    if target_name == layout.layout_name:
        return layout, 0.0

    if isinstance(layout, ParquetLayout):
        records = list(layout.scan_records())
        rows, record_row_counts = flatten_records(records, schema, layout.fields)
        converted = build_layout(
            target_name,
            schema,
            layout.fields,
            rows=rows,
            record_row_counts=record_row_counts,
        )
    else:
        converted = build_layout(
            target_name,
            schema,
            layout.fields,
            rows=list(layout.rows()),
            record_row_counts=layout.record_row_counts,
        )
    return converted, time.perf_counter() - started


def flatten_records(  # rowwise-fallback: the records-to-rows bridge for callers that hold nested records (layout conversion, benches); the cold path hands build_layout columns
    records: Sequence[dict], schema: RecordType, fields: Sequence[str]
) -> tuple[list[dict], list[int]]:
    """Flatten nested records into rows restricted to ``fields``.

    Returns the rows and the per-record row counts (needed to regroup the rows
    back into records if the item later converts to the Parquet layout).
    """
    wanted = set(fields)
    rows: list[dict] = []
    counts: list[int] = []
    for record in records:
        flattened = flatten_record(record, schema)
        counts.append(len(flattened))
        for row in flattened:
            rows.append({k: row.get(k) for k in wanted})
    return rows, counts


def unflatten_rows(  # rowwise-fallback: the rows-to-records bridge of a relational-to-Parquet layout conversion
    rows: Sequence[dict],
    schema: RecordType,
    fields: Sequence[str],
    record_row_counts: Sequence[int] | None = None,
) -> list[dict]:
    """Regroup flattened rows into nested records.

    When ``record_row_counts`` is unknown (the rows came from flat relational
    data), each row becomes its own record.  Supports one level of repeated
    nesting, which covers every dataset in the paper's evaluation.
    """
    if record_row_counts is None:
        record_row_counts = [1] * len(rows)
    if sum(record_row_counts) != len(rows):
        raise ValueError(
            f"record_row_counts sums to {sum(record_row_counts)} but there are {len(rows)} rows"
        )

    flat_fields = [f for f in fields if not schema.is_nested_path(f)]
    nested_fields = [f for f in fields if schema.is_nested_path(f)]
    groups: dict[str, list[str]] = {}
    for field in nested_fields:
        prefix = repetition_group(schema, field) or field
        groups.setdefault(prefix, []).append(field)

    records: list[dict] = []
    cursor = 0
    for count in record_row_counts:
        chunk = rows[cursor : cursor + count]
        cursor += count
        record: dict = {}
        first = chunk[0] if chunk else {}
        for field in flat_fields:
            _set_path(record, field, first.get(field))
        for prefix, group_fields in groups.items():
            elements = _rebuild_elements(chunk, prefix, group_fields)
            _set_path(record, prefix, elements)
        records.append(record)
    return records


def _rebuild_elements(chunk: Sequence[dict], prefix: str, group_fields: Sequence[str]) -> list:
    list_of_atoms = list(group_fields) == [prefix]
    # A single row whose nested values are all None represents an empty list.
    if len(chunk) == 1 and all(chunk[0].get(f) is None for f in group_fields):
        return []
    elements: list = []
    for row in chunk:
        if list_of_atoms:
            elements.append(row.get(prefix))
            continue
        element: dict = {}
        for field in group_fields:
            suffix = field[len(prefix) + 1 :]
            _set_path(element, suffix, row.get(field))
        elements.append(element)
    return elements


def _set_path(target: dict, path: str, value) -> None:
    parts = path.split(".")
    current = target
    for part in parts[:-1]:
        current = current.setdefault(part, {})
    current[parts[-1]] = value
