"""Relational column-oriented cache layout.

Nested data is first flattened (duplicating parent attributes per nested
element, exactly as in Section 4 of the paper) and then stored one Python list
per column.  Scans touch only the requested columns, which makes reading the
cache cheap in terms of compute — the layout's weakness is that flattening
inflates the number of rows, so queries touching only parent-level attributes
must still iterate over all ``R`` flattened rows.

Because the cached data is already parsed and binary, range predicates over
numeric columns can be evaluated vectorized (:meth:`ColumnarLayout.range_filtered_batch`),
which is what makes reusing a cache substantially cheaper than re-parsing the
raw file — the effect the paper's Figure 13 relies on.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.engine.batch import RecordBatch, numeric_column_array, object_validity_mask
from repro.engine.types import RecordType
from repro.faults import runtime as faults
from repro.layouts.base import CacheLayout, estimate_sequence_bytes


class ColumnarLayout(CacheLayout):
    """Column-major storage of flattened tuples."""

    layout_name = "columnar"

    def __init__(
        self,
        schema: RecordType,
        fields: Sequence[str],
        columns: dict[str, list],
        record_row_counts: Sequence[int] | None = None,
    ) -> None:
        super().__init__(schema, fields)
        lengths = {len(col) for col in columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
        self._columns = columns
        self._row_count = lengths.pop() if lengths else 0
        self._record_row_counts = list(record_row_counts) if record_row_counts else None
        self._nbytes = sum(estimate_sequence_bytes(col) for col in columns.values())
        #: lazily built numeric (float64) views of columns, for vectorized filters
        self._numeric_arrays: dict[str, np.ndarray | None] = {}
        #: lazily built object-dtype views of columns, enabling vectorized
        #: gathers (NumPy fancy indexing) on the filter/dedupe fast paths
        self._object_arrays: dict[str, np.ndarray] = {}
        #: lazily built ``value is not None`` masks per column, pre-seeded
        #: into batches so vectorized ``!=`` pays the Python walk once
        self._validity_arrays: dict[str, np.ndarray] = {}
        #: lazily built first-flattened-row-per-record index array
        self._first_row_array: np.ndarray | None = None

    # -- CacheLayout API ------------------------------------------------------
    @property
    def nbytes(self) -> int:
        return self._nbytes

    @property
    def flattened_row_count(self) -> int:
        return self._row_count

    @property
    def record_count(self) -> int:
        if self._record_row_counts is not None:
            return len(self._record_row_counts)
        return self._row_count

    @property
    def record_row_counts(self) -> list[int] | None:
        """Rows contributed by each original nested record (None for flat data)."""
        return self._record_row_counts

    def column(self, name: str) -> list:
        """Direct access to one column's values (used by layout conversion)."""
        return self._columns[name]

    def scan(self, fields: Sequence[str] | None = None) -> Iterator[dict]:
        """Yield rows for ``fields``."""
        wanted = list(fields) if fields is not None else list(self.fields)
        missing = [f for f in wanted if f not in self._columns]
        if missing:
            raise KeyError(f"columns not cached: {missing}")
        selected = [self._columns[f] for f in wanted]
        injector = faults.injector_for("scan.layout", self.layout_name)
        for values in zip(*selected) if selected else []:
            if injector is not None:
                injector()
            yield dict(zip(wanted, values))

    def scan_batches(
        self,
        fields: Sequence[str] | None = None,
        batch_size: int = 1024,
        dedupe_records: bool = False,
        numeric_fields: Sequence[str] | None = None,
    ) -> Iterator[RecordBatch]:
        """Yield the cached columns as batches by direct slicing.

        The storage is already column-major, so a batch is a set of list
        slices — no per-row work at all.  The layout's cached numeric column
        views are sliced alongside so batch predicates reuse the one-time
        float64 conversion across queries; ``numeric_fields`` names the
        columns worth force-building a view for (the caller's predicate
        columns), while other columns only reuse a view that already exists.
        ``dedupe_records`` implements the nested-algebra semantics for queries
        that touch no nested attribute: only the first flattened row of each
        original record is emitted, so parent attributes are not double
        counted.
        """
        wanted = list(fields) if fields is not None else list(self.fields)
        missing = [f for f in wanted if f not in self._columns]
        if missing:
            raise KeyError(f"columns not cached: {missing}")
        prime = set(numeric_fields or ())
        arrays = {
            f: self.numeric_array(f) if f in prime else self._numeric_arrays.get(f)
            for f in wanted
        }
        validity = {
            f: self.validity_array(f) if f in prime else self._validity_arrays.get(f)
            for f in wanted
        }
        injector = faults.injector_for("scan.layout", self.layout_name)
        if dedupe_records:
            first_rows = self._record_first_row_array()
            for start in range(0, len(first_rows), batch_size):
                if injector is not None:
                    injector()
                chunk = first_rows[start : start + batch_size]
                batch = RecordBatch(
                    {f: list(self._object_array(f)[chunk]) for f in wanted},
                    row_count=len(chunk),
                )
                for name, array in arrays.items():
                    if array is not None:
                        batch.set_numeric_view(name, array[chunk])
                for name, mask in validity.items():
                    if mask is not None:
                        batch.set_validity_view(name, mask[chunk])
                yield batch
            return
        for start in range(0, self._row_count, batch_size):
            if injector is not None:
                injector()
            stop = min(self._row_count, start + batch_size)
            batch = RecordBatch(
                {f: self._columns[f][start:stop] for f in wanted}, row_count=stop - start
            )
            for name, array in arrays.items():
                if array is not None:
                    batch.set_numeric_view(name, array[start:stop])
            for name, mask in validity.items():
                if mask is not None:
                    batch.set_validity_view(name, mask[start:stop])
            yield batch

    # -- vectorized range filtering -------------------------------------------
    def numeric_array(self, name: str) -> np.ndarray | None:
        """A float64 view of one column (missing values become NaN).

        Returns ``None`` for columns that are not genuinely numeric (digit
        strings stay strings, so string-typed predicates keep their row
        semantics); the view is built lazily on first use and reused by later
        filtered scans.
        """
        if name not in self._numeric_arrays:
            self._numeric_arrays[name] = numeric_column_array(self._columns[name])
        return self._numeric_arrays[name]

    def validity_array(self, name: str) -> np.ndarray:
        """Cached ``value is not None`` mask of one column.

        Pre-seeded into scan batches for predicate columns so vectorized
        ``!=`` evaluates its null guard as one cached boolean array instead
        of re-walking the Python values per batch per query.
        """
        if name not in self._validity_arrays:
            self._validity_arrays[name] = object_validity_mask(self._columns[name])
        return self._validity_arrays[name]

    def _object_array(self, name: str) -> np.ndarray:
        """Cached object-dtype view of one column, for vectorized gathers.

        Filled cell by cell (once, then cached) rather than via ``np.asarray``
        so sequence-valued cells can never trigger NumPy's shape inference.
        """
        if name not in self._object_arrays:
            column = self._columns[name]
            array = np.empty(len(column), dtype=object)
            for index, value in enumerate(column):
                array[index] = value
            self._object_arrays[name] = array
        return self._object_arrays[name]

    def supports_range_filter(self, fields: Sequence[str]) -> bool:
        """True when every given field has a numeric vectorizable column."""
        return all(
            field in self._columns and self.numeric_array(field) is not None for field in fields
        )

    def _range_mask(
        self, ranges: Mapping[str, tuple[float, float]], dedupe_records: bool
    ) -> np.ndarray:
        """The boolean row mask for a conjunction of closed numeric ranges.

        ``dedupe_records`` keeps only the first flattened row of each original
        record (see :meth:`scan`).
        """
        injector = faults.injector_for("scan.layout", self.layout_name)
        if injector is not None:
            injector()  # one opportunity per vectorized stripe read
        mask = np.ones(self._row_count, dtype=bool)
        for field, (low, high) in ranges.items():
            array = self.numeric_array(field)
            if array is None:
                raise ValueError(f"column {field!r} is not numeric; use scan() instead")
            mask &= (array >= low) & (array <= high)
        if dedupe_records:
            keep = np.zeros(self._row_count, dtype=bool)
            keep[self._record_first_row_array()] = True
            mask &= keep
        return mask

    def range_filtered_batch(
        self,
        ranges: Mapping[str, tuple[float, float]],
        fields: Sequence[str] | None = None,
        dedupe_records: bool = False,
    ) -> RecordBatch:
        """One :class:`RecordBatch` of the rows satisfying closed numeric ranges.

        The filter is evaluated vectorized over the numeric column views and
        the matching rows are gathered into batch columns (and sliced numeric
        views) — the cache-hit fast path of the executor.
        """
        wanted = list(fields) if fields is not None else list(self.fields)
        missing = [f for f in wanted if f not in self._columns]
        if missing:
            raise KeyError(f"columns not cached: {missing}")
        index_array = np.nonzero(self._range_mask(ranges, dedupe_records))[0]
        batch = RecordBatch(
            {f: list(self._object_array(f)[index_array]) for f in wanted},
            row_count=len(index_array),
        )
        for name in wanted:
            array = self._numeric_arrays.get(name)
            if array is not None:
                batch.set_numeric_view(name, array[index_array])
            mask = self._validity_arrays.get(name)
            if mask is not None:
                batch.set_validity_view(name, mask[index_array])
        return batch

    def _record_first_row_array(self) -> np.ndarray:
        """Sorted row indexes of the first flattened row of each record.

        Computed as an exclusive prefix sum over the per-record row counts
        (degenerate zero-row records are clamped to one slot, preserving the
        historical cursor semantics), cached for reuse across dedup scans.
        """
        if self._first_row_array is None:
            if self._record_row_counts is None:
                self._first_row_array = np.arange(self._row_count, dtype=np.int64)
            elif not self._record_row_counts:
                self._first_row_array = np.empty(0, dtype=np.int64)
            else:
                counts = np.maximum(
                    1, np.asarray(self._record_row_counts, dtype=np.int64)
                )
                starts = np.empty(len(counts), dtype=np.int64)
                starts[0] = 0
                np.cumsum(counts[:-1], out=starts[1:])
                self._first_row_array = starts
        return self._first_row_array
