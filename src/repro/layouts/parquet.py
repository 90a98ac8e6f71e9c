"""Parquet/Dremel-style nested columnar cache layout.

The default layout for caches of nested data (Section 4.2): it is cheap to
*build* (no duplication of parent attributes, hence far fewer memory writes —
Figure 6) and cheap to *scan* when only non-nested attributes are requested
(parent columns are short — Figure 1, second half), but pays a per-value
level-interpretation cost when nested attributes must be reassembled into
rows (Figures 1 and 5).
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.engine.batch import RecordBatch, numeric_column_array
from repro.engine.types import RecordType
from repro.faults import runtime as faults
from repro.layouts.assembly import (
    assemble_columns,
    assemble_records,
    assemble_rows,
    repetition_group,
)
from repro.layouts.base import CacheLayout, estimate_sequence_bytes
from repro.layouts.striping import StripedColumn, prune_schema, stripe_records


class ParquetLayout(CacheLayout):
    """Striped storage of nested records with FSM-based row assembly."""

    layout_name = "parquet"

    def __init__(
        self,
        schema: RecordType,
        fields: Sequence[str],
        columns: dict[str, StripedColumn],
        record_count: int,
    ) -> None:
        super().__init__(schema, fields)
        self._columns = columns
        self._record_count = record_count
        self._nbytes = sum(
            estimate_sequence_bytes(col.values)
            # one byte each for the repetition and definition levels
            + 2 * col.entry_count
            for col in columns.values()
        )
        self._flattened_rows = self._compute_flattened_rows()
        #: lazily built float64 views of *non-nested* columns (one entry per
        #: record), enabling vectorized range filters on parent attributes
        self._numeric_arrays: dict[str, np.ndarray | None] = {}
        #: lazily built object-dtype views of flat columns, enabling vectorized
        #: gathers (NumPy fancy indexing) on the range-filter fast path
        self._object_arrays: dict[str, np.ndarray] = {}
        #: cached single-repetition-group entry plans keyed by the frozenset of
        #: nested paths involved (None = those paths need full assembly)
        self._entry_plans: dict[frozenset, tuple | None] = {}

    @classmethod
    def from_records(
        cls,
        records: Sequence[dict],
        schema: RecordType,
        fields: Sequence[str],
    ) -> "ParquetLayout":
        """Stripe nested records into columns for the requested leaf paths."""
        columns = stripe_records(records, schema, fields)
        return cls(schema, list(fields), columns, len(records))

    # -- CacheLayout API ------------------------------------------------------
    @property
    def nbytes(self) -> int:
        return self._nbytes

    @property
    def flattened_row_count(self) -> int:
        return self._flattened_rows

    @property
    def record_count(self) -> int:
        return self._record_count

    def columns(self) -> dict[str, StripedColumn]:
        """Direct access to the striped columns (used by conversion/tests)."""
        return self._columns

    def scan(self, fields: Sequence[str] | None = None) -> Iterator[dict]:
        """Yield flattened rows for ``fields``.

        When every requested field is non-nested, the scan walks only the
        short parent-level columns (one entry per record).  Otherwise it runs
        the full level-interpreting assembly, which is the computationally
        expensive path the layout selector measures as ``C``.
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

    def scan_records(self, fields: Sequence[str] | None = None) -> Iterator[dict]:
        """Reconstruct (partial) nested records — used for layout conversion."""
        wanted = list(fields) if fields is not None else list(self.fields)
        return assemble_records(self._columns, self.schema, wanted)

    def rows(self) -> Iterator[dict]:
        return self.scan()

    def scan_batches(
        self,
        fields: Sequence[str] | None = None,
        batch_size: int = 1024,
        numeric_fields: Sequence[str] | None = None,
    ) -> Iterator[RecordBatch]:
        """Yield the striped columns as :class:`RecordBatch` chunks.

        Projection is pushed into the stripes: only the columns of ``fields``
        are touched, and the schema is pruned to the requested leaf paths
        before any grouping decision.  When every requested field is flat
        (non-repeated), a batch is a set of striped-value list slices — the
        stripe already holds one entry per record with ``None`` at every
        below-max definition level, so no row assembly (and no
        ``assemble_records``/``assemble_rows`` call) happens at all, and the
        layout's cached float64 views are sliced alongside for ``numeric_fields``
        so batch predicates evaluate as NumPy masks over shared arrays.

        Requests touching nested fields take the *striped view* fast path
        when the nested columns form a single aligned repetition group (the
        overwhelmingly common shape): by the striping invariant, one group's
        entries in record order *are* the flattened rows — nested columns are
        raw stripe slices, flat columns are ``np.repeat`` gathers by the
        per-record entry counts, and float64/validity views come straight
        from the cached entry arrays and ``def == max_def`` level masks, so
        no per-record Python structure is ever assembled.  Only multi-group
        (cross-product) or depth>1 misaligned requests fall back to the
        level-interpreting assembly *per column*
        (:func:`~repro.layouts.assembly.assemble_columns`).
        """
        wanted = list(fields) if fields is not None else list(self.fields)
        missing = [f for f in wanted if f not in self._columns]
        if missing:
            raise KeyError(f"columns not cached: {missing}")
        injector = faults.injector_for("scan.layout", self.layout_name)
        flat_columns = {
            f: self._columns[f].flat_values(self._record_count) for f in wanted
        }
        if wanted and all(values is not None for values in flat_columns.values()):
            prime = set(numeric_fields or ())
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
        plan = self._single_group_plan(wanted)
        if plan is not None and all(
            values is not None
            for f, values in flat_columns.items()
            if not self._columns[f].is_nested
        ):
            counts, offsets, _record_ids = plan
            prime = set(numeric_fields or ())
            for start in range(0, self._record_count, batch_size):
                if injector is not None:
                    injector()
                stop = min(self._record_count, start + batch_size)
                entry_start, entry_stop = int(offsets[start]), int(offsets[stop])
                batch_counts = counts[start:stop]
                columns: dict[str, list] = {}
                for f in wanted:
                    column = self._columns[f]
                    if column.is_nested:
                        columns[f] = column.values[entry_start:entry_stop]
                    else:
                        columns[f] = list(
                            np.repeat(self._object_array(f)[start:stop], batch_counts)
                        )
                batch = RecordBatch(
                    columns,
                    row_count=entry_stop - entry_start,
                    record_row_counts=batch_counts,
                )
                for f in wanted:
                    column = self._columns[f]
                    if column.is_nested:
                        numeric = column.numeric_entries() if f in prime else None
                        if numeric is not None:
                            batch.set_numeric_view(f, numeric[entry_start:entry_stop])
                        if f in prime:
                            batch.set_validity_view(
                                f, column.entry_validity()[entry_start:entry_stop]
                            )
                    elif f in prime:
                        numeric = self.numeric_array(f)
                        if numeric is not None:
                            batch.set_numeric_view(
                                f, np.repeat(numeric[start:stop], batch_counts)
                            )
                        batch.set_validity_view(
                            f,
                            np.repeat(
                                column.entry_validity()[start:stop], batch_counts
                            ),
                        )
                yield batch
            return
        pruned = prune_schema(self.schema, wanted)
        columns, row_count = assemble_columns(self._columns, pruned, wanted)
        for start in range(0, row_count, batch_size):
            if injector is not None:
                injector()
            stop = min(row_count, start + batch_size)
            yield RecordBatch(
                {f: col[start:stop] for f, col in columns.items()},
                row_count=stop - start,
            )

    # -- vectorized range filtering (non-nested columns only) ------------------
    def numeric_array(self, name: str) -> np.ndarray | None:  # returns: flat-view
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
        Only valid for columns whose flat view exists — callers gate on the
        numeric-mask check, which already requires it.
        """
        if name not in self._object_arrays:
            values = self._columns[name].flat_values(self._record_count)
            assert values is not None  # guaranteed by the mask's numeric check
            array = np.empty(len(values), dtype=object)
            for index, value in enumerate(values):
                array[index] = value
            self._object_arrays[name] = array
        return self._object_arrays[name]

    def _single_group_plan(self, involved: Sequence[str]) -> tuple | None:
        """The entry plan for the nested columns among ``involved``, or ``None``.

        A plan exists when the nested columns form exactly one repetition
        group at depth 1 and their per-record entry offsets agree — then one
        group entry corresponds to exactly one flattened row and the stripes
        can be read as row-aligned arrays with no level interpretation.
        Returns ``(counts, offsets, record_ids)``: per-record entry counts,
        entry offsets (``record_count + 1``), and the per-entry record
        ordinal used to expand/gather flat per-record arrays.
        """
        nested = sorted(
            f
            for f in set(involved)
            if f in self._columns and self._columns[f].is_nested
        )
        if not nested:
            return None
        key = frozenset(nested)
        if key not in self._entry_plans:
            plan = None
            groups = {repetition_group(self.schema, f) for f in nested}
            first = self._columns[nested[0]]
            if (
                len(groups) == 1
                and all(self._columns[f].max_repetition == 1 for f in nested)
                and all(
                    np.array_equal(
                        first.entry_offsets(), self._columns[f].entry_offsets()
                    )
                    for f in nested[1:]
                )
            ):
                counts = first.entry_counts()
                record_ids = np.repeat(
                    np.arange(self._record_count, dtype=np.int64), counts
                )
                plan = (counts, first.entry_offsets(), record_ids)
            self._entry_plans[key] = plan
        return self._entry_plans[key]

    def supports_range_filter(self, fields: Sequence[str]) -> bool:
        """True when the fields filter/project as vectorized stripe arrays.

        Non-nested numeric columns always qualify (the original contract).
        Nested numeric columns qualify when they form a single aligned
        repetition group (:meth:`_single_group_plan`): the range mask then
        evaluates at entry granularity — one entry per flattened row — which
        is exactly the row set a filter over the assembled rows keeps.
        """
        nested = [
            f
            for f in fields
            if f in self._columns and self._columns[f].is_nested
        ]
        flat_ok = all(
            self.numeric_array(field) is not None
            for field in fields
            if field not in nested
        )
        if not nested:
            return flat_ok
        return (
            flat_ok
            and self._single_group_plan(fields) is not None
            and all(self._columns[f].numeric_entries() is not None for f in nested)
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

    def _nested_range_selection(
        self, ranges: Mapping[str, tuple[float, float]], involved: Sequence[str]
    ) -> tuple[tuple, np.ndarray]:
        """Entry-granular range selection when nested columns are involved.

        The mask is evaluated directly over the striped entry arrays — one
        entry per flattened row by the single-group invariant — with ``None``
        entries (missing values, empty collections) failing every range
        exactly like the expression language's null rule.  Returns the entry
        plan and the sorted indexes of matching entries.
        """
        injector = faults.injector_for("scan.layout", self.layout_name)
        if injector is not None:
            injector()  # one opportunity per vectorized stripe read
        plan = self._single_group_plan(involved)
        if plan is None:
            raise ValueError(
                "nested columns span repetition groups or are misaligned; use scan() instead"
            )
        _counts, offsets, record_ids = plan
        mask = np.ones(int(offsets[-1]), dtype=bool)
        for field, (low, high) in ranges.items():
            column = self._columns[field]
            if column.is_nested:
                array = column.numeric_entries()
            else:
                flat = self.numeric_array(field)
                array = None if flat is None else flat[record_ids]
            if array is None:
                raise ValueError(f"column {field!r} is non-numeric; use scan() instead")
            mask &= (array >= low) & (array <= high)
        return plan, np.nonzero(mask)[0]

    def _entry_gather(self, name: str, plan: tuple, index_array: np.ndarray) -> np.ndarray:
        """Gather one column's values at the selected group entries.

        Nested columns index their entry arrays directly; flat columns hold
        one value per record and are gathered through the per-entry record
        ordinals, which is the vectorized equivalent of repeating the parent
        value across its children.
        """
        _counts, _offsets, record_ids = plan
        column = self._columns[name]
        if column.is_nested:
            return column.object_entries()[index_array]
        return self._object_array(name)[record_ids[index_array]]

    def range_filtered_batch(
        self,
        ranges: Mapping[str, tuple[float, float]],
        fields: Sequence[str] | None = None,
        dedupe_records: bool = False,
    ) -> RecordBatch:
        """One :class:`RecordBatch` of the records satisfying closed numeric ranges.

        Callers check :meth:`supports_range_filter` first.  The NumPy mask is evaluated on the striped per-record float64 views
        *before* any materialization, then only the matching records' values
        are gathered straight out of the stripes into batch columns (with the
        matching slices of the float64 views pre-seeded).  Parent-level
        columns carry one entry per record, so the output is record-granular
        by construction and ``dedupe_records`` is inherently satisfied.
        """
        wanted = list(fields) if fields is not None else list(self.fields)
        involved = sorted(set(wanted) | set(ranges))
        if any(
            f in self._columns and self._columns[f].is_nested for f in involved
        ):
            plan, index_array = self._nested_range_selection(ranges, involved)
            _counts, _offsets, record_ids = plan
            if dedupe_records and len(index_array):
                # Record-granular semantics: keep the first matching entry of
                # each record (defensive; nested-accessing queries run
                # row-granular and never request dedup).
                _, first_positions = np.unique(
                    record_ids[index_array], return_index=True
                )
                index_array = index_array[first_positions]
            columns = {
                name: list(self._entry_gather(name, plan, index_array))
                for name in wanted
            }
            batch = RecordBatch(columns, row_count=len(index_array))
            for name in wanted:
                column = self._columns[name]
                if column.is_nested:
                    numeric = column.numeric_entries()
                    if numeric is not None:
                        batch.set_numeric_view(name, numeric[index_array])
                    batch.set_validity_view(
                        name, column.entry_validity()[index_array]
                    )
                else:
                    numeric = self.numeric_array(name)
                    if numeric is not None:
                        batch.set_numeric_view(
                            name, numeric[record_ids[index_array]]
                        )
                    batch.set_validity_view(
                        name, column.entry_validity()[record_ids[index_array]]
                    )
            return batch
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

    # -- internals ------------------------------------------------------------
    def _scan_flat(self, wanted: Sequence[str]) -> Iterator[dict]:
        cols = [self._columns[f].flat_values(self._record_count) for f in wanted]
        if any(values is None for values in cols):  # malformed stripe: level walk
            yield from assemble_rows(self._columns, self.schema, list(wanted))
            return
        for values in zip(*cols):
            yield dict(zip(wanted, values))

    def _compute_flattened_rows(self) -> int:
        """Number of rows the cached data would occupy if flattened (``R``)."""
        nested_columns_by_group: dict[str, StripedColumn] = {}
        for path, column in self._columns.items():
            if column.is_nested:
                group = repetition_group(self.schema, path)
                nested_columns_by_group.setdefault(group or path, column)
        if not nested_columns_by_group:
            return self._record_count
        # Vectorized over records: one (start, end) range array per repetition
        # group, per-record row counts are the product of the group sizes.
        rows = np.ones(self._record_count, dtype=np.int64)
        for column in nested_columns_by_group.values():
            ranges = np.asarray(column.record_ranges, dtype=np.int64).reshape(-1, 2)
            rows *= np.maximum(1, ranges[:, 1] - ranges[:, 0])
        return int(rows.sum())
