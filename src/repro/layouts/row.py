"""Relational row-oriented cache layout.

Stores flattened tuples as Python tuples in row order.  Row layouts win when
queries touch most attributes of each tuple (Section 4.3); ReCache's
H2O-style row-vs-column selector estimates data-cache misses to decide when to
use it for flat relational caches.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.engine.batch import RecordBatch
from repro.engine.types import RecordType
from repro.faults import runtime as faults
from repro.layouts.base import CacheLayout, estimate_sequence_bytes


class RowLayout(CacheLayout):
    """Row-major storage of flattened tuples."""

    layout_name = "row"

    def __init__(
        self,
        schema: RecordType,
        fields: Sequence[str],
        columns: dict[str, list],
        record_row_counts: Sequence[int] | None = None,
    ) -> None:
        super().__init__(schema, fields)
        # A zip of unequal columns would silently truncate to the shortest.
        lengths = {len(columns[f]) for f in self.fields}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
        self._tuples: list[tuple] = list(zip(*(columns[f] for f in self.fields)))
        self._field_index = {name: i for i, name in enumerate(self.fields)}
        self._record_row_counts = list(record_row_counts) if record_row_counts else None
        self._nbytes = estimate_sequence_bytes(self._tuples)

    # -- CacheLayout API ------------------------------------------------------
    @property
    def nbytes(self) -> int:
        return self._nbytes

    @property
    def flattened_row_count(self) -> int:
        return len(self._tuples)

    @property
    def record_count(self) -> int:
        if self._record_row_counts is not None:
            return len(self._record_row_counts)
        return len(self._tuples)

    @property
    def record_row_counts(self) -> list[int] | None:
        """Rows contributed by each original nested record (None for flat data)."""
        return self._record_row_counts

    def _record_first_rows(self) -> set[int] | None:
        """Positions of each record's first flattened row (None for flat data)."""
        if self._record_row_counts is None:
            return None
        first_rows: set[int] = set()
        cursor = 0
        for count in self._record_row_counts:
            first_rows.add(cursor)
            cursor += max(1, count)
        return first_rows

    def scan(self, fields: Sequence[str] | None = None) -> Iterator[dict]:
        """Yield rows for ``fields``."""
        wanted = list(fields) if fields is not None else list(self.fields)
        indexes = [self._field_index[f] for f in wanted]
        injector = faults.injector_for("scan.layout", self.layout_name)
        for tup in self._tuples:
            if injector is not None:
                injector()
            yield {name: tup[idx] for name, idx in zip(wanted, indexes)}

    def scan_batches(
        self,
        fields: Sequence[str] | None = None,
        batch_size: int = 1024,
        dedupe_records: bool = False,
    ) -> Iterator[RecordBatch]:
        """Yield the cached tuples as batches (columns built by unzipping)."""
        wanted = list(fields) if fields is not None else list(self.fields)
        indexes = [self._field_index[f] for f in wanted]
        first_rows = self._record_first_rows() if dedupe_records else None
        if first_rows is not None:
            tuples = [t for i, t in enumerate(self._tuples) if i in first_rows]
        else:
            tuples = self._tuples
        injector = faults.injector_for("scan.layout", self.layout_name)
        for start in range(0, len(tuples), batch_size):
            if injector is not None:
                injector()
            chunk = tuples[start : start + batch_size]
            columns = {name: [t[i] for t in chunk] for name, i in zip(wanted, indexes)}
            yield RecordBatch(columns, row_count=len(chunk))

    def rows(self) -> Iterator[dict]:
        """Yield every cached row with all cached fields (no filtering)."""
        return self.scan()
