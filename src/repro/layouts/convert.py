"""Building cache layouts and converting a cached item between layouts.

Both layouts take row multiplicity from the schema's
:class:`~repro.engine.flatten.FlattenPlan`: ``build_layout("columnar",
records=)`` flattens through it, and the Parquet layout keeps its list counts
and gathers its rows by its index rule.  So the two layouts hold the same
rows, and conversion, which the layout selector triggers when a cached item
should switch representation (Section 4.2), goes column to column: Parquet
becomes columnar by concatenating the batches the engine's own scan yields
(repeating a flat-only scan's record rows over each record's flattened rows),
and columnar becomes Parquet by striping the flattened columns by their
per-record row counts; no row dictionary or nested record is built.  Its
wall-clock time is the transformation cost ``T`` that the cost model bounds
with equation (3).

A columnar entry keeps only each record's row count, not its list counts,
which is why some columnar layouts can never become Parquet
(:func:`regroupable`).  Two lists flatten into their cross product, and a
list inside a list keeps only its first element, so the rows no longer say
which elements each record held.  Such an item stays columnar.
"""

from __future__ import annotations

import time
from itertools import accumulate
from typing import Sequence

import numpy as np

from repro.engine.batch import RecordBatch
from repro.engine.flatten import flatten_plan, row_indexes
from repro.engine.types import RecordType
from repro.layouts.assembly import list_definition_threshold
from repro.layouts.base import CacheLayout
from repro.layouts.columnar import ColumnarLayout
from repro.layouts.parquet import ParquetLayout
from repro.layouts.striping import StripedColumn, column_levels

#: canonical names of the supported layouts
LAYOUT_NAMES = ("columnar", "parquet")


def build_layout(
    layout_name: str,
    schema: RecordType,
    fields: Sequence[str],
    records: Sequence[dict] | None = None,
    record_row_counts: Sequence[int] | None = None,
    columns: dict[str, list] | None = None,
) -> CacheLayout:
    """Build a layout from flattened columns or nested records.

    Callers provide whichever representation they already have.  The
    relational columnar layout is built from ``columns`` (one list per field — what
    the cold path produces, so it never assembles a row dictionary); nested
    records are flattened into columns first, by the schema's
    :class:`~repro.engine.flatten.FlattenPlan`.  Parquet stripes nested records.
    """
    if layout_name not in LAYOUT_NAMES:
        raise ValueError(f"unknown layout: {layout_name!r} (expected one of {LAYOUT_NAMES})")

    if layout_name == "parquet":
        if records is None:
            raise ValueError("parquet layout needs records")
        return ParquetLayout.from_records(records, schema, fields)

    if columns is None:
        if records is None:
            raise ValueError("columnar layout needs columns or records")
        columns, record_row_counts = flatten_plan(schema).columns(records, fields)
    return ColumnarLayout(schema, fields, columns, record_row_counts)


def convert_layout(
    layout: CacheLayout, target_name: str, schema: RecordType | None = None
) -> tuple[CacheLayout, float]:
    """Convert a cached item to ``target_name``; returns ``(layout, seconds)``.

    Raises ``ValueError`` for a columnar item whose schema is not
    :func:`regroupable`.
    """
    if target_name not in LAYOUT_NAMES:
        raise ValueError(f"unknown layout: {target_name!r} (expected one of {LAYOUT_NAMES})")
    schema = schema or layout.schema
    started = time.perf_counter()
    if target_name == layout.layout_name:
        return layout, 0.0

    if isinstance(layout, ParquetLayout):
        columns: dict[str, list] = {name: [] for name in layout.fields}
        for batch in layout.scan_batches():
            for name, values in batch.columns.items():
                columns[name].extend(values)
        if not any(schema.is_nested_path(name) for name in layout.fields):
            # A flat-only scan yields one row per record; a columnar item
            # holds each record's flattened rows, as build_layout(records=) does.
            owners = row_indexes(layout.list_counts, None)
            columns = RecordBatch(columns, row_count=layout.record_count).take(owners).columns
        converted: CacheLayout = ColumnarLayout(
            schema, layout.fields, columns, layout.record_row_counts
        )
    elif isinstance(layout, ColumnarLayout) and regroupable(schema):
        converted = _stripe_columns(layout, schema)
    else:
        raise ValueError("rows over two lists, or a list in a list, cannot regroup into records")
    return converted, time.perf_counter() - started


def regroupable(schema: RecordType) -> bool:
    """True when flattened rows of ``schema`` regroup into records by row counts:
    at most one row-multiplying list, and no leaf under two repeated levels."""
    return len(flatten_plan(schema).lists) <= 1 and all(
        column_levels(schema, path)[0] <= 1 for path in schema.leaf_paths()
    )


def _stripe_columns(layout: ColumnarLayout, schema: RecordType) -> ParquetLayout:
    """Stripe a columnar layout of a :func:`regroupable` schema.

    Each record's rows are then the elements of its one list, in order (one
    row of ``None`` list leaves for an empty list), with its flat leaves
    repeated on every row.  So a repeated column's entries are its rows as
    they stand, repetition level 0 at each record's first row and 1 after it,
    and a flat column keeps each record's first row.  Definition levels take
    every optional record on a leaf's path as present: the maximum for a
    value, one less for ``None``, and the empty-list level for the single row
    of a record whose list leaves are all ``None``.  These are the stripes
    :func:`~repro.layouts.striping.stripe_records` gives for the records the
    rows regroup into.
    """
    fields = layout.fields
    row_count = layout.flattened_row_count
    counts = layout.record_row_counts or [1] * row_count
    if sum(counts) != row_count or min(counts, default=1) < 1:
        raise ValueError(f"record_row_counts must be positive and sum to the {row_count} rows")
    offsets = list(accumulate(counts, initial=0))
    starts = offsets[:-1]
    entry_ranges = list(zip(starts, offsets[1:]))
    repetition = [1] * row_count
    for start in starts:
        repetition[start] = 0
    levels = {path: column_levels(schema, path) for path in fields}
    list_columns = [layout.column(path) for path in fields if levels[path][0]]
    empty_lists = [
        start
        for start, count in zip(starts, counts)
        if count == 1 and all(column[start] is None for column in list_columns)
    ]

    record_ranges = list(zip(range(len(counts)), range(1, len(counts) + 1)))
    columns: dict[str, StripedColumn] = {}
    for path in fields:
        max_repetition, max_definition = levels[path]
        values = layout.column(path)
        if max_repetition:
            entries, reps, ranges = list(values), list(repetition), list(entry_ranges)
        else:
            entries = list(map(values.__getitem__, starts))
            reps, ranges = [0] * len(counts), list(record_ranges)
        definition = [
            max_definition if value is not None else max_definition - 1 for value in entries
        ]
        if max_repetition:
            empty_level = list_definition_threshold(schema, path) - 2
            for start in empty_lists:
                definition[start] = empty_level
        columns[path] = StripedColumn(
            path, max_repetition, max_definition, entries, reps, definition, ranges
        )
    # the schema's one list (if any) holds each record's row count of elements
    list_counts = np.tile(np.asarray(counts, dtype=np.int32), (len(flatten_plan(schema).lists), 1))
    return ParquetLayout(schema, fields, columns, list_counts)
