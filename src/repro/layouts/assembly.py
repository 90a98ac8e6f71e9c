"""Record assembly for the striped (Parquet/Dremel) layout.

The paper points out that Parquet's benefit (short parent columns, no
duplication) comes with a computational price: reconstructing rows requires a
finite-state walk over repetition/definition levels, which adds branches per
value.  The functions here implement that reconstruction:

* :func:`assemble_rows` produces flattened rows (the same rows a
  :class:`~repro.layouts.columnar.ColumnarLayout` would store), interpreting
  levels entry by entry — this is the expensive path used when a query touches
  nested attributes.
* :func:`assemble_records` reconstructs (partial) nested records, the
  reference for the striping round-trip tests.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Sequence

from repro.engine.types import DataType, ListType, RecordType
from repro.layouts.striping import StripedColumn


def repetition_group(schema: RecordType, path: str) -> str | None:
    """Return the path prefix of the first repeated ancestor of ``path``.

    Columns sharing a repetition group repeat together (they belong to the same
    nested collection); columns with no repeated ancestor return ``None`` and
    have exactly one entry per record.
    """
    current: DataType = schema
    parts = path.split(".")
    prefix_parts: list[str] = []
    for part in parts:
        while isinstance(current, ListType):
            return ".".join(prefix_parts)
        if not isinstance(current, RecordType):
            raise KeyError(f"path {path!r} descends into non-record type")
        current = current.field(part).dtype
        prefix_parts.append(part)
        if isinstance(current, ListType):
            return ".".join(prefix_parts)
    return None


def list_definition_threshold(schema: RecordType, path: str) -> int:
    """Definition level at which the first repeated ancestor of ``path`` has
    at least one element.  Entries below this level represent empty/missing
    collections."""
    current: DataType = schema
    definition = 0
    for part in path.split("."):
        while isinstance(current, ListType):
            definition += 1
            return definition
        if not isinstance(current, RecordType):
            raise KeyError(f"path {path!r} descends into non-record type")
        current = current.field(part).dtype
        definition += 1
        if isinstance(current, ListType):
            definition += 1
            return definition
    return definition


def assemble_rows(
    columns: dict[str, StripedColumn],
    schema: RecordType,
    fields: Sequence[str] | None = None,
) -> Iterator[dict]:
    """Reassemble flattened rows from striped columns.

    Rows follow the same flattening semantics as
    :func:`repro.engine.types.flatten_record`: independent nested collections
    produce a cross product, empty collections contribute a single row with
    ``None`` in their columns.
    """
    if fields is None:
        fields = list(columns)
    missing = [f for f in fields if f not in columns]
    if missing:
        raise KeyError(f"columns not striped: {missing}")
    if not fields:
        return
    record_count = len(next(iter(columns.values())).record_ranges)

    # Partition the requested fields by repetition group once, outside the
    # per-record loop.
    groups: dict[str | None, list[str]] = {}
    for field in fields:
        groups.setdefault(repetition_group(schema, field), []).append(field)
    flat_fields = groups.pop(None, [])
    nested_groups = list(groups.items())

    for record_index in range(record_count):
        row_base: dict = {}
        for field in flat_fields:
            column = columns[field]
            start, end = column.record_entries(record_index)
            if end > start and column.definition_levels[start] == column.max_definition:
                row_base[field] = column.values[start]
            else:
                row_base[field] = None

        if not nested_groups:
            yield dict(row_base)
            continue

        # For every nested group, materialize its per-element slices for this
        # record (the finite-state walk over repetition levels).
        group_rows: list[list[dict]] = []
        for _, group_fields in nested_groups:
            group_rows.append(_group_elements(columns, group_fields, record_index))

        for combo in product(*group_rows):
            row = dict(row_base)
            for part in combo:
                row.update(part)
            yield row


def assemble_columns(  # rowwise-fallback: audited multi-group fallback — scan_batches takes the striped-view fast path for single-group plans; cross-product records need the per-record level walk
    columns: dict[str, StripedColumn],
    schema: RecordType,
    fields: Sequence[str],
) -> tuple[dict[str, list], int]:
    """Column-wise counterpart of :func:`assemble_rows`.

    Produces exactly the same flattened rows — independent nested collections
    cross-product, empty collections contribute one all-``None`` row — but
    builds one value list per column instead of a dictionary per row.  Flat
    fields skip level interpretation entirely (their striped values are
    already the per-record column; see
    :meth:`~repro.layouts.striping.StripedColumn.flat_values`) and are
    repeated per cross-product row; only nested columns pay the per-entry
    level walk, and each pays it once per column, not once per output row.

    Returns ``(columns, row_count)``.
    """
    fields = list(fields)
    missing = [f for f in fields if f not in columns]
    if missing:
        raise KeyError(f"columns not striped: {missing}")
    out: dict[str, list] = {field: [] for field in fields}
    if not fields:
        return out, 0
    record_count = len(next(iter(columns.values())).record_ranges)

    groups: dict[str | None, list[str]] = {}
    for field in fields:
        groups.setdefault(repetition_group(schema, field), []).append(field)
    flat_fields = groups.pop(None, [])
    nested_groups = list(groups.items())

    flat_columns = [
        (field, columns[field].flat_values(record_count)) for field in flat_fields
    ]

    total_rows = 0
    for record_index in range(record_count):
        # Per-element value lists of every nested group (one column slice per
        # field — the level walk happens here, per column).
        group_values: list[tuple[list[str], dict[str, list], int]] = []
        rows_here = 1
        for _, group_fields in nested_groups:
            per_field, count = _group_value_lists(columns, group_fields, record_index)
            group_values.append((group_fields, per_field, count))
            rows_here *= count

        for field, values in flat_columns:
            if values is not None:
                value = values[record_index]
            else:  # malformed stripe: fall back to the guarded entry lookup
                column = columns[field]
                start, end = column.record_entries(record_index)
                defined = (
                    end > start
                    and column.definition_levels[start] == column.max_definition
                )
                value = column.values[start] if defined else None
            if rows_here == 1:
                out[field].append(value)
            else:
                out[field].extend([value] * rows_here)

        # Cross-product expansion, matching product(*group_rows) order in
        # assemble_rows: earlier groups vary slowest.
        inner = rows_here
        outer = 1
        for group_fields, per_field, count in group_values:
            inner //= count
            for field in group_fields:
                values = per_field[field]
                target = out[field]
                if inner == 1 and outer == 1:
                    target.extend(values)
                else:
                    for _ in range(outer):
                        for value in values:
                            target.extend([value] * inner)
            outer *= count
        total_rows += rows_here
    return out, total_rows


def _group_value_lists(  # rowwise-fallback: audited multi-group fallback (see assemble_columns) — per-element slices of one repetition group
    columns: dict[str, StripedColumn],
    group_fields: Sequence[str],
    record_index: int,
) -> tuple[dict[str, list], int]:
    """Per-element values of one repetition group within one record.

    Striped entries already store ``None`` for every below-max definition
    level, so a column slice is the element value list; the pad only guards
    best-effort deep-nesting stripes where a member column runs short.
    """
    first = columns[group_fields[0]]
    start, end = first.record_entries(record_index)
    count = max(1, end - start)
    per_field: dict[str, list] = {}
    for field in group_fields:
        column = columns[field]
        f_start, f_end = column.record_entries(record_index)
        values = column.values[f_start : min(f_end, f_start + count)]
        if len(values) < count:
            values = values + [None] * (count - len(values))
        per_field[field] = values
    return per_field, count


def _group_elements(
    columns: dict[str, StripedColumn],
    group_fields: Sequence[str],
    record_index: int,
) -> list[dict]:
    """Per-element partial rows of one repetition group within one record."""
    first = columns[group_fields[0]]
    start, end = first.record_entries(record_index)
    count = max(1, end - start)
    elements: list[dict] = []
    for position in range(count):
        part: dict = {}
        for field in group_fields:
            column = columns[field]
            f_start, f_end = column.record_entries(record_index)
            index = f_start + position
            if index < f_end and column.definition_levels[index] == column.max_definition:
                part[field] = column.values[index]
            else:
                part[field] = None
        elements.append(part)
    return elements


def assemble_records(
    columns: dict[str, StripedColumn],
    schema: RecordType,
    fields: Sequence[str] | None = None,
) -> Iterator[dict]:
    """Reconstruct (partial) nested records containing the striped fields.

    Supports the nesting shapes used throughout the repository: atoms, records
    of atoms, and a single level of repeated collections (lists of atoms or
    lists of records).  Deeper repeated nesting is reconstructed best-effort by
    collapsing to the first level.
    """
    if fields is None:
        fields = list(columns)
    if not fields:
        return
    record_count = len(next(iter(columns.values())).record_ranges)
    groups: dict[str | None, list[str]] = {}
    for field in fields:
        groups.setdefault(repetition_group(schema, field), []).append(field)
    flat_fields = groups.pop(None, [])
    nested_groups = list(groups.items())
    thresholds = {
        prefix: list_definition_threshold(schema, group_fields[0])
        for prefix, group_fields in nested_groups
    }

    for record_index in range(record_count):
        record: dict = {}
        for field in flat_fields:
            column = columns[field]
            start, end = column.record_entries(record_index)
            value = None
            if end > start and column.definition_levels[start] == column.max_definition:
                value = column.values[start]
            _set_path(record, field, value)

        for prefix, group_fields in nested_groups:
            elements = _assemble_group_elements(
                columns, schema, prefix, group_fields, record_index, thresholds[prefix]
            )
            _set_path(record, prefix, elements)
        yield record


def _assemble_group_elements(
    columns: dict[str, StripedColumn],
    schema: RecordType,
    prefix: str,
    group_fields: Sequence[str],
    record_index: int,
    threshold: int,
) -> list:
    first = columns[group_fields[0]]
    start, end = first.record_entries(record_index)
    # An empty or missing collection stripes as a single entry at the
    # definition level of the list node itself — ``threshold - 2`` (the
    # threshold counts both the field's and the list's level on top of it).
    # A *present but null* element sits one level higher (``threshold - 1``)
    # and must reconstruct as a one-element collection, not an empty one.
    if end - start == 1 and first.definition_levels[start] <= threshold - 2:
        return []
    list_of_atoms = group_fields == [prefix]
    elements: list = []
    for position in range(end - start):
        if list_of_atoms:
            column = columns[prefix]
            f_start, _ = column.record_entries(record_index)
            index = f_start + position
            if column.definition_levels[index] == column.max_definition:
                elements.append(column.values[index])
            else:
                elements.append(None)
            continue
        element: dict = {}
        for field in group_fields:
            column = columns[field]
            f_start, f_end = column.record_entries(record_index)
            index = f_start + position
            value = None
            if index < f_end and column.definition_levels[index] == column.max_definition:
                value = column.values[index]
            suffix = field[len(prefix) + 1 :]
            _set_path(element, suffix, value)
        elements.append(element)
    return elements


def _set_path(target: dict, path: str, value) -> None:
    parts = path.split(".")
    current = target
    for part in parts[:-1]:
        current = current.setdefault(part, {})
    current[parts[-1]] = value
