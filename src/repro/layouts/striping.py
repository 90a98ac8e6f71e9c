"""Dremel-style column striping for nested records.

Implements the "column striping" half of the Parquet layout described in
Section 4 of the paper: each leaf field of a nested schema is stored in its own
column without duplication, and every column entry carries two small integers —
a *repetition level* (at which repeated ancestor the value repeats) and a
*definition level* (how many of its optional/repeated ancestors are actually
present).  Non-nested columns end up with exactly one entry per record, which
is what makes them "short" and cheap to scan; nested columns carry one entry
per element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.engine.batch import numeric_column_array
from repro.engine.types import (
    AtomType,
    DataType,
    Field,
    ListType,
    RecordType,
)


@dataclass
class StripedColumn:
    """One striped leaf column: values plus repetition/definition levels."""

    path: str
    max_repetition: int
    max_definition: int
    values: list = field(default_factory=list)
    repetition_levels: list[int] = field(default_factory=list)
    definition_levels: list[int] = field(default_factory=list)
    #: per-record (start, end) entry ranges, filled in by ``stripe_records``
    record_ranges: list[tuple[int, int]] = field(default_factory=list)
    #: lazily built NumPy views over the stripe (see the ``*_array`` methods);
    #: excluded from equality so cached and freshly-striped columns compare equal
    _definition_array: object = field(default=None, repr=False, compare=False)
    _entry_validity: object = field(default=None, repr=False, compare=False)
    _numeric_entries: object = field(default=None, repr=False, compare=False)
    _numeric_checked: bool = field(default=False, repr=False, compare=False)
    _object_entries: object = field(default=None, repr=False, compare=False)
    _entry_offsets: object = field(default=None, repr=False, compare=False)

    @property
    def is_nested(self) -> bool:
        return self.max_repetition > 0

    @property
    def entry_count(self) -> int:
        return len(self.values)

    def append(self, value, repetition: int, definition: int) -> None:
        self.values.append(value)
        self.repetition_levels.append(repetition)
        self.definition_levels.append(definition)

    def record_entries(self, record_index: int) -> tuple[int, int]:
        """Return the (start, end) entry range belonging to one record."""
        return self.record_ranges[record_index]

    # ------------------------------------------------------------------
    # Vectorized entry views (built once, cached on the column)
    #
    # These are the raw arrays the nested-predicate vectorizer works on:
    # predicates over ``a.b.c`` evaluate directly against the entry-granular
    # value/definition arrays, so a scan never assembles per-record Python
    # structures just to test a condition.
    # ------------------------------------------------------------------
    def definition_array(self) -> np.ndarray:
        """The definition levels as an int64 array (one slot per entry)."""
        if self._definition_array is None:
            self._definition_array = np.asarray(self.definition_levels, dtype=np.int64)
        return self._definition_array

    def entry_validity(self) -> np.ndarray:
        """Boolean array: entry carries a present value (def level == max).

        By the striping invariant, an entry below the maximum definition
        level always stores ``None`` — so this mask is identical to a
        per-entry ``value is not None`` test, computed from the level array.
        """
        if self._entry_validity is None:
            self._entry_validity = self.definition_array() == self.max_definition
        return self._entry_validity

    def numeric_entries(self) -> np.ndarray | None:  # returns: flat-view
        """Cached float64 view of the raw entry values, or ``None``.

        ``None`` entries (missing/empty collections and NULL atoms) become
        NaN, exactly like :func:`repro.engine.batch.numeric_column_array`;
        string columns return ``None`` and keep the per-row fallback.
        """
        if not self._numeric_checked:
            self._numeric_entries = numeric_column_array(self.values)
            self._numeric_checked = True
        return self._numeric_entries

    def object_entries(self) -> np.ndarray:
        """Cached object-dtype view of the raw entry values (for gathers)."""
        if self._object_entries is None:
            arr = np.empty(len(self.values), dtype=object)
            arr[:] = self.values
            self._object_entries = arr
        return self._object_entries

    def entry_offsets(self) -> np.ndarray:
        """Entry offsets per record: ``offsets[i]:offsets[i+1]`` is record i.

        Length is ``record_count + 1``; valid because ``stripe_records``
        appends entries record by record, so ranges are contiguous.
        """
        if self._entry_offsets is None:
            ranges = np.asarray(self.record_ranges, dtype=np.int64).reshape(-1, 2)
            offsets = np.empty(len(ranges) + 1, dtype=np.int64)
            offsets[:-1] = ranges[:, 0]
            offsets[-1] = self.entry_count
            self._entry_offsets = offsets
        return self._entry_offsets

    def entry_counts(self) -> np.ndarray:
        """Per-record entry counts (``>= 1`` everywhere: empty collections
        stripe one placeholder entry, see ``_emit_nulls``)."""
        offsets = self.entry_offsets()
        return offsets[1:] - offsets[:-1]

    def flat_values(self, record_count: int) -> list | None:  # returns: flat-view
        """The per-record value list of a non-repeated column, or ``None``.

        A flat (non-repeated) column stripes exactly one entry per record, in
        record order, and an entry whose definition level is below the maximum
        always stores ``None`` (see :func:`_stripe_record`) — so the raw
        ``values`` list *is* the per-record column, NULLs included and
        position-aligned with every other flat column.  This is what the
        Parquet layout's vectorized fast paths build batches and float64
        views from without any level interpretation.  Returns ``None`` for
        nested columns (or a malformed stripe whose entry count disagrees
        with the record count), where entries need the level walk.
        """
        if self.is_nested or len(self.values) != record_count:
            return None
        return self.values


def prune_schema(schema: RecordType, paths: Sequence[str]) -> RecordType:
    """Return a copy of ``schema`` containing only the given leaf paths."""
    wanted = set(paths)
    pruned = _prune(schema, "", wanted)
    if pruned is None:
        return RecordType([])
    assert isinstance(pruned, RecordType)
    return pruned


def _prune(dtype: DataType, prefix: str, wanted: set[str]) -> DataType | None:
    if isinstance(dtype, AtomType):
        return dtype if prefix in wanted else None
    if isinstance(dtype, ListType):
        inner = _prune(dtype.element, prefix, wanted)
        return ListType(inner) if inner is not None else None
    if isinstance(dtype, RecordType):
        fields = []
        for f in dtype.fields:
            child_prefix = f"{prefix}.{f.name}" if prefix else f.name
            inner = _prune(f.dtype, child_prefix, wanted)
            if inner is not None:
                fields.append(Field(f.name, inner))
        return RecordType(fields) if fields else None
    raise TypeError(f"unsupported data type: {dtype!r}")


def column_levels(schema: RecordType, path: str) -> tuple[int, int]:
    """Return ``(max_repetition, max_definition)`` for a leaf path."""
    max_rep = 0
    max_def = 0
    current: DataType = schema
    for part in path.split("."):
        while isinstance(current, ListType):
            max_rep += 1
            max_def += 1
            current = current.element
        if not isinstance(current, RecordType):
            raise KeyError(f"path {path!r} descends into non-record type")
        current = current.field(part).dtype
        max_def += 1  # every field is treated as optional
    while isinstance(current, ListType):
        max_rep += 1
        max_def += 1
        current = current.element
    return max_rep, max_def


def stripe_records(  # rowwise-fallback: striping shreds decoded nested records one by one by definition (cold-path cache build)
    records: Sequence[dict],
    schema: RecordType,
    fields: Sequence[str] | None = None,
) -> dict[str, StripedColumn]:
    """Shred nested records into striped columns for the requested leaf paths.

    Leaf columns stripe independently of each other, so when every requested
    path crosses at most one repeated level the per-record recursive walk is
    replaced by compiled per-leaf stripers (one flat closure per column) that
    emit identical values, levels and record ranges at a fraction of the
    interpreter overhead.  Any deeper repetition (``max_repetition > 1``)
    falls back to the general recursive shredder.
    """
    if fields is None:
        fields = schema.leaf_paths()
    columns: dict[str, StripedColumn] = {}
    for path in fields:
        max_rep, max_def = column_levels(schema, path)
        columns[path] = StripedColumn(path, max_rep, max_def)

    stripers: list[tuple] | None = []
    for path, column in columns.items():
        fn = _leaf_striper(schema, path)
        if fn is None:
            stripers = None
            break
        stripers.append((column, fn))
    if stripers is not None:
        for column, fn in stripers:
            values = column.values
            reps = column.repetition_levels
            defs = column.definition_levels
            ranges = column.record_ranges
            for record in records:
                start = len(values)
                fn(record, values, reps, defs)
                ranges.append((start, len(values)))
        return columns

    pruned = prune_schema(schema, fields)
    for record in records:
        starts = {path: col.entry_count for path, col in columns.items()}
        _stripe_record(record, pruned, "", 0, 0, 0, columns)
        for path, col in columns.items():
            col.record_ranges.append((starts[path], col.entry_count))
    return columns


def _analyze_stripe_path(schema: RecordType, path: str):
    """Split ``path`` into (record keys, list key, element keys), or None.

    Returns None when the path crosses more than one repeated level — those
    columns keep the recursive shredder.
    """
    prefix: list[str] = []
    suffix: list[str] = []
    list_seen = False
    current: DataType = schema
    for part in path.split("."):
        if isinstance(current, ListType):
            if list_seen:
                return None
            list_seen = True
            current = current.element
            if isinstance(current, ListType):
                return None
        if not isinstance(current, RecordType):
            return None
        (suffix if list_seen else prefix).append(part)
        current = current.field(part).dtype
    if isinstance(current, ListType):
        if list_seen:
            return None
        list_seen = True
        current = current.element
    if not isinstance(current, AtomType):
        return None
    if not list_seen:
        return (prefix, None, [])
    # The repeated field itself is the last prefix part; ``suffix`` holds the
    # element-relative keys (empty for a list of atoms).
    return (prefix[:-1], prefix[-1], suffix)


def _leaf_striper(schema: RecordType, path: str):
    """Compile one leaf path into ``fn(record, values, reps, defs)`` or None.

    Each closure reproduces ``_stripe_record``'s emissions for its column
    exactly: the same ``is not None`` definition increments, the same
    ``isinstance(..., dict)`` record coercion, the same empty/missing-list
    placeholder entry, and the same first-element repetition level rule.
    """
    spec = _analyze_stripe_path(schema, path)
    if spec is None:
        return None
    prefix, list_key, suffix = spec

    if list_key is None:
        inter, leaf = prefix[:-1], prefix[-1]

        def stripe_flat(record, values, reps, defs):
            d = 0
            parent = record
            for k in inter:
                v = parent.get(k)
                if v is not None:
                    d += 1
                parent = v if isinstance(v, dict) else {}
            v = parent.get(leaf)
            values.append(v)
            reps.append(0)
            defs.append(d + 1 if v is not None else d)

        return stripe_flat

    inter = prefix
    if suffix:
        s_inter, s_leaf = suffix[:-1], suffix[-1]

        def stripe_list_of_records(record, values, reps, defs):
            d = 0
            parent = record
            for k in inter:
                v = parent.get(k)
                if v is not None:
                    d += 1
                parent = v if isinstance(v, dict) else {}
            lv = parent.get(list_key)
            if isinstance(lv, (list, tuple)) and lv:
                rep = 0
                for element in lv:
                    dd = d + 1
                    if element is not None:
                        dd += 1
                    cur = element if isinstance(element, dict) else {}
                    for k in s_inter:
                        v = cur.get(k)
                        if v is not None:
                            dd += 1
                        cur = v if isinstance(v, dict) else {}
                    v = cur.get(s_leaf)
                    values.append(v)
                    reps.append(rep)
                    defs.append(dd + 1 if v is not None else dd)
                    rep = 1
            else:
                values.append(None)
                reps.append(0)
                defs.append(d)

        return stripe_list_of_records

    def stripe_list_of_atoms(record, values, reps, defs):
        d = 0
        parent = record
        for k in inter:
            v = parent.get(k)
            if v is not None:
                d += 1
            parent = v if isinstance(v, dict) else {}
        lv = parent.get(list_key)
        if isinstance(lv, (list, tuple)) and lv:
            rep = 0
            for element in lv:
                values.append(element)
                reps.append(rep)
                defs.append(d + 2 if element is not None else d + 1)
                rep = 1
        else:
            values.append(None)
            reps.append(0)
            defs.append(d)

    return stripe_list_of_atoms


def _stripe_record(
    value: object,
    dtype: DataType,
    prefix: str,
    repetition: int,
    definition: int,
    repeated_depth: int,
    columns: dict[str, StripedColumn],
) -> None:
    """Recursively emit striped entries for ``value`` of type ``dtype``."""
    if isinstance(dtype, AtomType):
        column = columns.get(prefix)
        if column is None:
            return
        if value is None:
            column.append(None, repetition, definition)
        else:
            column.append(value, repetition, definition + 1)
        return

    if isinstance(dtype, RecordType):
        if prefix:
            definition = definition + 1 if value is not None else definition
        record = value if isinstance(value, dict) else {}
        for f in dtype.fields:
            child_prefix = f"{f.name}" if not prefix else f"{prefix}.{f.name}"
            _stripe_record(
                record.get(f.name),
                f.dtype,
                child_prefix,
                repetition,
                definition,
                repeated_depth,
                columns,
            )
        return

    if isinstance(dtype, ListType):
        elements = value if isinstance(value, (list, tuple)) and value else None
        if elements is None:
            # Empty or missing list: one placeholder entry at the current
            # definition level for every leaf beneath this path.
            _emit_nulls(dtype.element, prefix, repetition, definition, columns)
            return
        list_rep = repeated_depth + 1
        for index, element in enumerate(elements):
            element_rep = repetition if index == 0 else list_rep
            _stripe_record(
                element,
                dtype.element,
                prefix,
                element_rep,
                definition + 1,
                list_rep,
                columns,
            )
        return

    raise TypeError(f"unsupported data type: {dtype!r}")


def _emit_nulls(
    dtype: DataType,
    prefix: str,
    repetition: int,
    definition: int,
    columns: dict[str, StripedColumn],
) -> None:
    if isinstance(dtype, AtomType):
        column = columns.get(prefix)
        if column is not None:
            column.append(None, repetition, definition)
        return
    if isinstance(dtype, ListType):
        _emit_nulls(dtype.element, prefix, repetition, definition, columns)
        return
    if isinstance(dtype, RecordType):
        for f in dtype.fields:
            child_prefix = f"{f.name}" if not prefix else f"{prefix}.{f.name}"
            _emit_nulls(f.dtype, child_prefix, repetition, definition, columns)
        return
    raise TypeError(f"unsupported data type: {dtype!r}")
