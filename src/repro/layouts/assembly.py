"""Record assembly for the striped (Parquet/Dremel) layout.

The paper points out that Parquet's benefit (short parent columns, no
duplication) comes with a computational price: reconstructing rows requires a
finite-state walk over repetition/definition levels, which adds branches per
value.  The functions here implement that walk, entry by entry; the engine's
scans do not use them (``ParquetLayout.scan_batches`` gathers rows by the
:class:`~repro.engine.flatten.FlattenPlan`, which also holds the lists no
requested field lies in):

* :func:`assemble_rows` produces flattened rows over the repetition groups of
  the requested fields only — the row scan the layout figures time through
  ``CacheLayout.scan``.
* :func:`assemble_records` reconstructs (partial) nested records, the
  reference for the striping round-trip tests.

:func:`list_definition_threshold` is also the empty-list level the
columnar-to-Parquet striping writes.
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

    Independent repetition groups among ``fields`` produce a cross product,
    and an empty collection contributes a single row with ``None`` in its
    columns; a list none of ``fields`` lies in does not multiply rows here.
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
