"""Record batches: the unit of the vectorized execution pipeline.

A :class:`RecordBatch` is a columnar struct-of-lists chunk of flattened rows:
one Python list per column plus optional record-level side information.  Scans
(format plugins and cache layouts) produce batches of a configurable size, the
batched operators consume and produce them, and per-column ``float64`` NumPy
views are built lazily so numeric predicates evaluate as vectorized masks
instead of per-row closure calls.

The record-level side information exists because ReCache's semantics are
record-granular even though execution is row-granular:

* ``record_row_counts`` — how many flattened rows each original record
  contributed (nested JSON records flatten into several rows).  Needed for the
  nested algebra's record-level dedup semantics and for admission sampling,
  which counts *records*, not rows.
* ``records`` — the caching payload per record (the split cells of a CSV line,
  the decoded object of a JSON line): what the materializer converts into the
  remaining cached fields of the records that satisfy the predicate, without
  reading or splitting the line again.
* ``record_bytes`` — raw byte size per record in the file, feeding the
  admission controller's total-record extrapolation.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np


def numeric_column_array(values) -> np.ndarray | None:
    """A float64 array for a column of numbers/``None``, else ``None``.

    Only genuinely numeric values qualify: NumPy would happily parse digit
    *strings* into floats, silently succeeding where ``Expression.evaluate``'s
    comparison raises TypeError.  ``None`` becomes NaN, which fails every
    ordered comparison exactly like the expression language's null rule.  The
    float64 coercion means vectorized predicates treat a genuine NaN data
    value as a null and integers beyond 2**53 lose precision; the repo's
    CSV/JSON workloads produce neither.
    """
    if not all(
        value_type is float or value_type is int or value_type is type(None) or value_type is bool
        for value_type in map(type, values)
    ):
        return None
    return np.array([np.nan if value is None else value for value in values], dtype=np.float64)


def object_validity_mask(values) -> np.ndarray:
    """A boolean array marking the non-``None`` positions of a value list.

    This is exactly the aggregate-input rule (``value is not None``): unlike
    an ``isnan`` test on a float64 view, it keeps a genuine NaN data value
    valid, so the NumPy group-by skips nulls and only nulls.
    """
    return np.fromiter((value is not None for value in values), dtype=bool, count=len(values))  # rowwise-fallback: None-validity of object columns is a per-value identity test by definition


class RecordBatch:
    """A columnar chunk of flattened rows flowing through the batched executor."""

    __slots__ = (
        "columns",
        "record_row_counts",
        "records",
        "record_bytes",
        "_row_count",
        "_numeric",
        "_validity",
        "_record_offsets",
    )

    def __init__(
        self,
        columns: dict[str, list],
        row_count: int | None = None,
        record_row_counts: list[int] | None = None,
        records: list | None = None,
        record_bytes: list[int] | None = None,
    ) -> None:
        if row_count is None:
            row_count = len(next(iter(columns.values()))) if columns else 0
        lengths = {len(col) for col in columns.values()}
        if lengths and lengths != {row_count}:
            raise ValueError(f"ragged batch columns: lengths {sorted(lengths)} != {row_count}")
        self.columns = columns
        self._row_count = row_count
        self.record_row_counts = record_row_counts
        self.records = records
        self.record_bytes = record_bytes
        #: lazily built float64 views per column (None = not numeric)
        self._numeric: dict[str, np.ndarray | None] = {}
        #: lazily built ``value is not None`` masks per column (layouts with
        #: striped definition levels pre-seed these without touching values)
        self._validity: dict[str, np.ndarray] = {}
        #: lazily built per-record row offsets (len == record_count + 1)
        self._record_offsets: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, rows: Sequence[dict], fields: Sequence[str] | None = None) -> "RecordBatch":
        """Build a batch from row dictionaries (missing fields become ``None``)."""
        if fields is None:
            fields = list(rows[0].keys()) if rows else []
        columns: dict[str, list] = {name: [] for name in fields}
        for row in rows:
            for name in fields:
                columns[name].append(row.get(name))
        return cls(columns, row_count=len(rows))

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def row_count(self) -> int:
        return self._row_count

    @property
    def record_count(self) -> int:
        """Number of original records in the batch (== rows for flat data)."""
        if self.record_row_counts is not None:
            return len(self.record_row_counts)
        return self._row_count

    @property
    def total_record_bytes(self) -> int:
        return sum(self.record_bytes) if self.record_bytes else 0

    def field_names(self) -> list[str]:
        return list(self.columns)

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------
    def column(self, name: str) -> list:
        """One column's values; a missing column reads as all-``None``
        (``row.get`` semantics)."""
        if name in self.columns:
            return self.columns[name]
        return [None] * self._row_count

    def numeric_view(self, name: str) -> np.ndarray | None:
        """A cached float64 view of one column (see :func:`numeric_column_array`).

        Returns ``None`` when the column holds non-numeric values; vectorized
        predicates then fall back to the compiled per-row closure.
        """
        if name not in self._numeric:
            self._numeric[name] = numeric_column_array(self.column(name))
        return self._numeric[name]

    def set_numeric_view(self, name: str, array: np.ndarray) -> None:
        """Pre-seed a numeric view (layouts share their cached column arrays)."""
        self._numeric[name] = array

    def validity_view(self, name: str) -> np.ndarray:
        """A cached ``value is not None`` mask for one column.

        Striped layouts pre-seed this from definition-level arrays
        (``def == max_def``, the same predicate by the striping invariant),
        so vectorized ``!=`` and existence tests never walk Python values.
        """
        if name not in self._validity:
            self._validity[name] = object_validity_mask(self.column(name))
        return self._validity[name]

    def set_validity_view(self, name: str, array: np.ndarray) -> None:
        """Pre-seed a validity mask (layouts derive these from def levels)."""
        self._validity[name] = array

    # ------------------------------------------------------------------
    # Record-granular views
    # ------------------------------------------------------------------
    def record_ids(self) -> np.ndarray:
        """Per-row ordinal of the originating record within this batch."""
        if self.record_row_counts is None:
            return np.arange(self._row_count)
        return np.repeat(np.arange(len(self.record_row_counts)), self.record_row_counts)

    def record_offsets(self) -> np.ndarray:
        """Row offsets per record: ``offsets[i]:offsets[i+1]`` is record i.

        Length is ``record_count + 1``; for flat batches every row is its
        own record, so the offsets are simply ``0..row_count``.
        """
        if self._record_offsets is None:
            if self.record_row_counts is None:
                self._record_offsets = np.arange(self._row_count + 1, dtype=np.int64)
            else:
                offsets = np.empty(len(self.record_row_counts) + 1, dtype=np.int64)
                offsets[0] = 0
                np.cumsum(np.asarray(self.record_row_counts, dtype=np.int64), out=offsets[1:])
                self._record_offsets = offsets
        return self._record_offsets

    def record_any(self, mask: np.ndarray) -> np.ndarray:
        """Per-record OR of a row mask — the entry→record granularity
        reduction of the nested-predicate vectorizer.

        ``np.logical_or.reduceat`` over the record row offsets answers "did
        any flattened row of this record satisfy the mask", bit-identical to
        a per-record existence test over the rows.
        """
        mask = np.asarray(mask, dtype=bool)
        if self.record_row_counts is None:
            return mask
        offsets = self.record_offsets()
        record_count = len(offsets) - 1
        if record_count == 0 or mask.size == 0:
            return np.zeros(record_count, dtype=bool)
        counts = offsets[1:] - offsets[:-1]
        if counts.min() < 1:
            # Degenerate zero-row records would make reduceat read into the
            # next segment; reduce through explicit record ids instead.
            out = np.zeros(record_count, dtype=bool)
            out[np.unique(self.record_ids()[mask])] = True
            return out
        return np.logical_or.reduceat(mask, offsets[:-1])

    def records_with_true(self, mask: np.ndarray) -> np.ndarray:
        """Sorted in-batch ordinals of records with at least one True row."""
        return np.nonzero(self.record_any(mask))[0]

    def first_true_per_record(self, mask: np.ndarray) -> np.ndarray:
        """Row indexes of the first True row of each record (record dedup)."""
        true_rows = np.nonzero(np.asarray(mask, dtype=bool))[0]
        if len(true_rows) == 0 or self.record_row_counts is None:
            # Flat data: every row is its own record.
            return true_rows
        ids = self.record_ids()[true_rows]
        _, first_positions = np.unique(ids, return_index=True)
        return true_rows[first_positions]

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def take(self, indexes) -> "RecordBatch":
        """A new batch holding the rows at ``indexes`` (record info dropped)."""
        positions = np.asarray(indexes, dtype=np.intp)
        index_list = positions.tolist()  # rowwise-fallback: take() gathers object columns through Python; numeric columns regather via the float64 views below
        columns = {
            name: [col[i] for i in index_list] for name, col in self.columns.items()  # rowwise-fallback: object-column gather (see take() note above)
        }
        taken = RecordBatch(columns, row_count=len(index_list))
        for name, array in self._numeric.items():
            if array is not None:
                taken._numeric[name] = array[positions]
        for name, array in self._validity.items():
            taken._validity[name] = array[positions]
        return taken

    def merge(self, other: "RecordBatch") -> "RecordBatch":
        """This batch's columns followed by ``other``'s (equal row counts).

        A name both batches hold keeps its position here but takes ``other``'s
        values and views; record information is dropped.
        """
        merged = RecordBatch({**self.columns, **other.columns}, row_count=self._row_count)
        for name in merged.columns:
            owner = other if name in other.columns else self
            if owner._numeric.get(name) is not None:
                merged._numeric[name] = owner._numeric[name]
            if name in owner._validity:
                merged._validity[name] = owner._validity[name]
        return merged

    def project(self, fields: Sequence[str]) -> "RecordBatch":
        """Restrict the batch to ``fields`` (missing fields become ``None``)."""
        projected = RecordBatch(
            {name: self.column(name) for name in fields}, row_count=self._row_count
        )
        for name in fields:
            if self._numeric.get(name) is not None:
                projected._numeric[name] = self._numeric[name]
            if name in self._validity:
                projected._validity[name] = self._validity[name]
        return projected

    def slice_records(self, start: int, stop: int) -> "RecordBatch":
        """The sub-batch holding records ``[start, stop)`` (sampling split)."""
        if self.record_row_counts is None:
            row_start, row_stop = start, stop
            counts = None
        else:
            offsets = self.record_offsets()
            row_start, row_stop = int(offsets[start]), int(offsets[stop])
            counts = self.record_row_counts[start:stop]
        sliced = RecordBatch(
            {name: col[row_start:row_stop] for name, col in self.columns.items()},
            row_count=row_stop - row_start,
            record_row_counts=counts,
            records=self.records[start:stop] if self.records is not None else None,
            record_bytes=self.record_bytes[start:stop] if self.record_bytes is not None else None,
        )
        for name, array in self._numeric.items():
            if array is not None:
                sliced._numeric[name] = array[row_start:row_stop]
        for name, array in self._validity.items():
            sliced._validity[name] = array[row_start:row_stop]
        return sliced

    # ------------------------------------------------------------------
    # Row materialization (pipeline exit points)
    # ------------------------------------------------------------------
    def to_rows(self, fields: Sequence[str] | None = None) -> list[dict]:
        wanted = list(fields) if fields is not None else list(self.columns)
        if not wanted:
            return [{} for _ in range(self._row_count)]
        selected = [self.column(name) for name in wanted]
        return [dict(zip(wanted, values)) for values in zip(*selected)]

    def iter_rows(self, fields: Sequence[str] | None = None) -> Iterator[dict]:
        wanted = list(fields) if fields is not None else list(self.columns)
        selected = [self.column(name) for name in wanted]
        for i in range(self._row_count):
            yield {name: col[i] for name, col in zip(wanted, selected)}

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"RecordBatch(rows={self._row_count}, fields={len(self.columns)})"


def rows_from_batches(batches: Sequence[RecordBatch]) -> list[dict]:  # rowwise-fallback: the audited rows exit — parity-tested against the reference oracle
    """Materialize a batch stream into the row dictionaries reports carry."""
    rows: list[dict] = []
    for batch in batches:
        rows.extend(batch.to_rows())
    return rows


def concat_batches(batches: Sequence[RecordBatch]) -> RecordBatch:
    """Concatenate batches into one (field set is the first-seen union).

    Float64 views that every input batch has *already* built (or had
    pre-seeded by a layout) for a column are concatenated along with it, so
    consumers like the factorized join probe slice one NumPy array instead
    of re-converting the merged Python list; views are never built here —
    a column any batch has not converted stays lazy.
    """
    if len(batches) == 1:
        return batches[0]
    fields: list[str] = []
    seen: set[str] = set()
    for batch in batches:
        for name in batch.columns:
            if name not in seen:
                seen.add(name)
                fields.append(name)
    columns: dict[str, list] = {name: [] for name in fields}
    total = 0
    for batch in batches:
        for name in fields:
            columns[name].extend(batch.column(name))
        total += batch.row_count
    merged = RecordBatch(columns, row_count=total)
    for name in fields:
        views = [
            batch._numeric.get(name) if name in batch.columns else None
            for batch in batches
        ]
        if all(view is not None for view in views):
            merged._numeric[name] = np.concatenate(views)
        masks = [
            batch._validity.get(name) if name in batch.columns else None
            for batch in batches
        ]
        if all(mask is not None for mask in masks):
            merged._validity[name] = np.concatenate(masks)
    return merged
