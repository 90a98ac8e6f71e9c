"""Parquet/Dremel-style nested columnar cache layout.

The default layout for caches of nested data (Section 4.2): it is cheap to
*build* (no duplication of parent attributes, hence far fewer memory writes —
Figure 6) and cheap to *scan* when only non-nested attributes are requested
(parent columns are short — Figure 1, second half), but pays for gathering
the flattened rows when nested attributes are read (Figures 1 and 5).

Beside the stripes of the leaves it caches, the layout keeps the schema's
:meth:`~repro.engine.flatten.FlattenPlan.list_counts` of its records for
*every* list, read or not, so its rows are the rows the columnar layout
holds: a scan that reads one list's leaves still multiplies by the others.
A scan of flat leaves only yields one row per record.  A scan that reads a
nested leaf yields the flattened rows, each column gathered from its stripe
by the plan's index rule (:func:`~repro.engine.flatten.row_indexes`); with
one list in the schema that gather is a slice.  A leaf under two repeated
levels reads the first element of its inner list: the stripe entry whose
repetition level is at most 1.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.engine.batch import RecordBatch, numeric_column_array
from repro.engine.flatten import flatten_plan, row_indexes
from repro.engine.types import RecordType
from repro.faults import runtime as faults
from repro.layouts.assembly import assemble_rows
from repro.layouts.base import CacheLayout, estimate_sequence_bytes
from repro.layouts.striping import StripedColumn, stripe_records


class ParquetLayout(CacheLayout):
    """Striped storage of nested records plus the list counts of each record."""

    layout_name = "parquet"

    def __init__(
        self,
        schema: RecordType,
        fields: Sequence[str],
        columns: dict[str, StripedColumn],
        list_counts: np.ndarray,
    ) -> None:
        super().__init__(schema, fields)
        self._columns = columns
        self._plan = flatten_plan(schema)
        #: int32 (lists x records) matrix of ``max(1, len(list))``
        self._list_counts = list_counts
        self._record_count = list_counts.shape[1]
        self._nbytes = list_counts.nbytes + sum(
            estimate_sequence_bytes(col.values)
            # one byte each for the repetition and definition levels
            + 2 * col.entry_count
            for col in columns.values()
        )
        self._record_row_counts = list_counts.prod(axis=0, dtype=np.int64)
        #: ``_row_offsets[i]:_row_offsets[i + 1]`` are record i's flattened rows
        self._row_offsets = np.concatenate(([0], np.cumsum(self._record_row_counts)))
        #: lazily built float64 views of *non-nested* columns (one entry per
        #: record), enabling vectorized range filters on parent attributes
        self._numeric_arrays: dict[str, np.ndarray | None] = {}
        #: lazily built object-dtype views of flat columns, enabling vectorized
        #: gathers (NumPy fancy indexing) on the range-filter fast path
        self._object_arrays: dict[str, np.ndarray] = {}
        #: lazily built row -> stripe entry arrays (see :meth:`_row_entries`)
        self._row_entry_arrays: dict[object, np.ndarray | None] = {}

    @classmethod
    def from_records(
        cls,
        records: Sequence[dict],
        schema: RecordType,
        fields: Sequence[str],
    ) -> "ParquetLayout":
        """Stripe nested records into columns for the requested leaf paths."""
        columns = stripe_records(records, schema, fields)
        return cls(schema, list(fields), columns, flatten_plan(schema).list_counts(records))

    # -- CacheLayout API ------------------------------------------------------
    @property
    def nbytes(self) -> int:
        return self._nbytes

    @property
    def flattened_row_count(self) -> int:
        return int(self._row_offsets[-1])

    @property
    def record_count(self) -> int:
        return self._record_count

    @property
    def list_counts(self) -> np.ndarray:
        """The int32 (lists x records) matrix of ``max(1, len(list))``."""
        return self._list_counts

    @property
    def record_row_counts(self) -> list[int]:
        """Rows each record flattens into: the product of its list counts."""
        return self._record_row_counts.tolist()

    def scan(self, fields: Sequence[str] | None = None) -> Iterator[dict]:
        """Yield flattened rows for ``fields``.

        When every requested field is non-nested, the scan walks only the
        short parent-level columns (one entry per record).  Otherwise it runs
        the full level-interpreting assembly, which is the computationally
        expensive path the layout figures measure.
        """
        wanted = list(fields) if fields is not None else list(self.fields)
        missing = [f for f in wanted if f not in self._columns]
        if missing:
            raise KeyError(f"columns not cached: {missing}")
        injector = faults.injector_for("scan.layout", self.layout_name)
        if wanted and all(not self._columns[f].is_nested for f in wanted):
            rows = self._scan_flat(wanted)
        else:
            rows = assemble_rows(self._columns, self.schema, wanted)
        for row in rows:
            if injector is not None:
                injector()
            yield row

    def scan_batches(
        self,
        fields: Sequence[str] | None = None,
        batch_size: int = 1024,
        numeric_fields: Sequence[str] | None = None,
    ) -> Iterator[RecordBatch]:
        """Yield the cached rows of ``fields`` as :class:`RecordBatch` chunks.

        Projection is pushed into the stripes: only the columns of ``fields``
        are touched.  When every requested field is flat, a batch holds one
        row per record as slices of the stripes (a flat stripe holds one
        entry per record, ``None`` below the maximum definition level).
        Otherwise a batch holds the flattened rows of its records, each column
        gathered from its stripe by :meth:`_row_entries` (a slice when that is
        the identity).  For ``numeric_fields`` the layout's cached float64
        views and definition-level validity masks are sliced or gathered
        alongside, so batch predicates evaluate as NumPy masks over shared
        arrays; flat batches also reuse any other view already built.
        """
        wanted = list(fields) if fields is not None else list(self.fields)
        missing = [f for f in wanted if f not in self._columns]
        if missing:
            raise KeyError(f"columns not cached: {missing}")
        injector = faults.injector_for("scan.layout", self.layout_name)
        prime = set(numeric_fields or ())
        if not any(self._columns[f].is_nested for f in wanted):
            flat_columns = {
                f: self._columns[f].flat_values(self._record_count) for f in wanted
            }
            arrays = {
                f: self.numeric_array(f) if f in prime else self._numeric_arrays.get(f)
                for f in wanted
            }
            for start in range(0, self._record_count, batch_size):
                if injector is not None:
                    injector()
                stop = min(self._record_count, start + batch_size)
                batch = RecordBatch(
                    {f: values[start:stop] for f, values in flat_columns.items()},
                    row_count=stop - start,
                )
                for name, array in arrays.items():
                    if array is not None:
                        batch.set_numeric_view(name, array[start:stop])
                yield batch
            return
        for start in range(0, self._record_count, batch_size):
            if injector is not None:
                injector()
            stop = min(self._record_count, start + batch_size)
            rows = slice(int(self._row_offsets[start]), int(self._row_offsets[stop]))
            batch = RecordBatch(
                {f: self._row_values(f, rows) for f in wanted},
                row_count=rows.stop - rows.start,
                record_row_counts=self._record_row_counts[start:stop],
            )
            for f in prime.intersection(wanted):
                self._seed_views(batch, f, rows)
            yield batch

    # -- vectorized range filtering --------------------------------------------
    def numeric_array(self, name: str) -> np.ndarray | None:
        """A float64 view of a non-nested numeric column (one value per record).

        Definition levels are honored structurally: a flat stripe stores
        ``None`` at exactly the entries whose definition level is below the
        maximum (missing/NULL values), so converting the raw striped values
        turns every NULL into NaN at its own record position — never skipped,
        never shifting later records out of alignment with other columns.
        """
        if name not in self._numeric_arrays:
            column = self._columns.get(name)
            values = (
                None if column is None else column.flat_values(self._record_count)
            )
            self._numeric_arrays[name] = (
                None if values is None else numeric_column_array(values)
            )
        return self._numeric_arrays[name]

    def _object_array(self, name: str) -> np.ndarray:
        """Cached object-dtype view of a flat column, for vectorized gathers.

        Filled cell by cell (once, then cached) rather than via ``np.asarray``
        so sequence-valued cells can never trigger NumPy's shape inference.
        Only valid for flat columns, whose stripe holds one entry per record.
        """
        if name not in self._object_arrays:
            values = self._columns[name].flat_values(self._record_count)
            assert values is not None  # a flat stripe holds one entry per record
            array = np.empty(len(values), dtype=object)
            for index, value in enumerate(values):
                array[index] = value
            self._object_arrays[name] = array
        return self._object_arrays[name]

    def _numeric_entries(self, name: str) -> np.ndarray | None:
        """The float64 view of a column's stripe entries, or ``None`` if not numeric."""
        column = self._columns[name]
        return column.numeric_entries() if column.is_nested else self.numeric_array(name)

    def _row_entries(self, path: str) -> np.ndarray | None:
        """For each flattened row, the entry of ``path``'s stripe it reads.

        ``None`` means row ``j`` reads entry ``j``: a leaf of the schema's only
        list.  Otherwise the array comes from the plan's index rule, built
        once per list (and per leaf under two repeated levels): a flat stripe
        holds one entry per record, a list leaf one per element, and a leaf
        under two repeated levels reaches its list's elements through the
        entries whose repetition level is at most 1.
        """
        column = self._columns[path]
        owner = self._plan.list_of(path)
        deep = column.max_repetition > 1
        key = path if deep else owner
        if key not in self._row_entry_arrays:
            entries = None
            if owner is None or deep or len(self._plan.lists) > 1:
                entries = row_indexes(self._list_counts, owner)
            if deep:
                levels = np.asarray(column.repetition_levels)
                entries = np.flatnonzero(levels <= 1)[entries]
            self._row_entry_arrays[key] = entries
        return self._row_entry_arrays[key]

    def _take(self, path: str, rows):
        """The stripe entries of ``path`` that the flattened ``rows`` read."""
        entries = self._row_entries(path)
        return rows if entries is None else entries[rows]

    def _objects(self, path: str) -> np.ndarray:
        """The object-dtype view of a column's stripe entries, for gathers."""
        column = self._columns[path]
        return column.object_entries() if column.is_nested else self._object_array(path)

    def _row_values(self, path: str, rows: slice) -> list:
        """The values of ``path`` on the flattened ``rows``."""
        if self._row_entries(path) is None:
            return self._columns[path].values[rows]
        return list(self._objects(path)[self._take(path, rows)])

    def _seed_views(self, batch: RecordBatch, path: str, rows) -> None:
        """Seed ``batch`` with the float64 view and validity mask of ``path`` on ``rows``."""
        take = self._take(path, rows)
        numeric = self._numeric_entries(path)
        if numeric is not None:
            batch.set_numeric_view(path, numeric[take])
        batch.set_validity_view(path, self._columns[path].entry_validity()[take])

    def supports_range_filter(self, fields: Sequence[str]) -> bool:
        """True when the fields filter/project as vectorized stripe arrays.

        Every field must be cached and numeric.  A nested field's mask is
        evaluated over the flattened rows, which is exactly the row set a
        filter over the assembled rows keeps, however many lists there are.
        """
        return all(
            field in self._columns and self._numeric_entries(field) is not None
            for field in fields
        )

    def _range_mask(
        self, ranges: Mapping[str, tuple[float, float]], wanted: Sequence[str]
    ) -> np.ndarray:
        """The per-record boolean mask for a conjunction of closed ranges.

        Raises for nested or non-numeric columns among the filtered *or*
        projected fields (callers check :meth:`supports_range_filter` first).
        """
        injector = faults.injector_for("scan.layout", self.layout_name)
        if injector is not None:
            injector()  # one opportunity per vectorized stripe read
        arrays = {}
        for field in set(wanted) | set(ranges):
            array = self.numeric_array(field)
            if array is None:
                raise ValueError(f"column {field!r} is nested or non-numeric; use scan() instead")
            arrays[field] = array
        mask = np.ones(self._record_count, dtype=bool)
        for field, (low, high) in ranges.items():
            mask &= (arrays[field] >= low) & (arrays[field] <= high)
        return mask

    def range_filtered_batch(
        self,
        ranges: Mapping[str, tuple[float, float]],
        fields: Sequence[str] | None = None,
        dedupe_records: bool = False,
    ) -> RecordBatch:
        """One :class:`RecordBatch` of the rows satisfying closed numeric ranges.

        Callers check :meth:`supports_range_filter` first.  When no field
        involved is nested, the NumPy mask is evaluated on the striped
        per-record float64 views, so the output is record-granular by
        construction and ``dedupe_records`` is inherently satisfied.
        Otherwise the mask is evaluated over the flattened rows, each nested
        column's entry view gathered by :meth:`_row_entries`, with ``None``
        entries (missing values, empty lists) failing every range exactly like
        the expression language's null rule.  Either way only the matching
        rows' values are gathered into batch columns, with the matching
        float64 views pre-seeded.
        """
        wanted = list(fields) if fields is not None else list(self.fields)
        involved = set(wanted) | set(ranges)
        if not any(f in self._columns and self._columns[f].is_nested for f in involved):
            index_array = np.nonzero(self._range_mask(ranges, wanted))[0]
            columns = {
                name: list(self._object_array(name)[index_array]) for name in wanted
            }
            batch = RecordBatch(columns, row_count=len(index_array))
            for name in wanted:
                array = self._numeric_arrays.get(name)
                if array is not None:
                    batch.set_numeric_view(name, array[index_array])
            return batch
        injector = faults.injector_for("scan.layout", self.layout_name)
        if injector is not None:
            injector()  # one opportunity per vectorized stripe read
        mask = np.ones(self.flattened_row_count, dtype=bool)
        for field, (low, high) in ranges.items():
            numeric = self._numeric_entries(field)
            if numeric is None:
                raise ValueError(f"column {field!r} is non-numeric; use scan() instead")
            values = numeric[self._take(field, slice(None))]
            mask &= (values >= low) & (values <= high)
        index_array = np.nonzero(mask)[0]
        if dedupe_records and len(index_array):
            # Record-granular semantics: keep the first matching row of each
            # record (defensive; nested-accessing queries run row-granular and
            # never request dedup).
            owners = row_indexes(self._list_counts, None)
            _, first_positions = np.unique(owners[index_array], return_index=True)
            index_array = index_array[first_positions]
        batch = RecordBatch(
            {name: list(self._objects(name)[self._take(name, index_array)]) for name in wanted},
            row_count=len(index_array),
        )
        for name in wanted:
            self._seed_views(batch, name, index_array)
        return batch

    # -- internals ------------------------------------------------------------
    def _scan_flat(self, wanted: Sequence[str]) -> Iterator[dict]:
        cols = [self._columns[f].flat_values(self._record_count) for f in wanted]
        if any(values is None for values in cols):  # malformed stripe: level walk
            yield from assemble_rows(self._columns, self.schema, list(wanted))
            return
        for values in zip(*cols):
            yield dict(zip(wanted, values))
