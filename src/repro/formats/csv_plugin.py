"""CSV input plugin.

Scans delimiter-separated text files a chunk of lines at a time.  Each line is
split **once**; only the fields a query needs are converted, one *column* at a
time (``map(int, cells)`` — the typed parse of an untouched field is skipped
entirely), and the split lines ride along as the caching payload so the
materializer can convert the remaining fields of the satisfying records from
the same splits.  The first full scan populates the record-level
:class:`~repro.formats.positional_map.PositionalMap`, which lazy caches use to
jump directly to individual records.
"""

from __future__ import annotations

from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.engine.batch import RecordBatch
from repro.engine.types import AtomType, RecordType
from repro.formats.linefile import LineFile


class CSVPlugin(LineFile):
    """Reader for a single CSV file described by a flat relational schema."""

    format_name = "csv"

    def __init__(self, path: str | Path, schema: RecordType, delimiter: str = "|") -> None:
        if not schema.is_flat():
            raise ValueError("CSV schema must be flat (atoms only)")
        super().__init__(path)
        self.schema = schema
        self.delimiter = delimiter
        self._field_index = {f.name: i for i, f in enumerate(schema.fields)}
        self._field_types: list[AtomType] = [f.dtype for f in schema.fields]  # type: ignore[misc]

    def columns_from_payload(
        self, payload: Sequence[list[str]], fields: Sequence[str]
    ) -> tuple[dict[str, list], None]:
        """Typed columns of ``fields`` from split lines a scan attached as payload.

        Returns ``(columns, None)``: flat records carry no per-record row counts.
        """
        return {name: self._typed_column(payload, self._field_index[name])[0] for name in fields}, None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _resolve_fields(self, fields: Sequence[str] | None) -> list[str]:
        if fields is None:
            return self.schema.field_names()
        unknown = [f for f in fields if f not in self._field_index]
        if unknown:
            raise KeyError(f"unknown CSV fields: {unknown}")
        return list(fields)

    def _batch(
        self, lines: list[str], wanted: Sequence[str], sizes: list[int] | None
    ) -> RecordBatch:
        """One batch of ``wanted`` columns; the payload is each line's split cells.

        Null-free numeric columns arrive with their float64 view seeded.
        """
        delimiter = self.delimiter
        splits = [line.split(delimiter) for line in lines]
        columns: dict[str, list] = {}
        numeric: list[str] = []
        for name in wanted:
            columns[name], null_free_numeric = self._typed_column(splits, self._field_index[name])
            if null_free_numeric:
                numeric.append(name)
        batch = RecordBatch(
            columns,
            row_count=len(splits),
            records=splits if sizes is not None else None,
            record_bytes=sizes,
        )
        for name in numeric:
            batch.set_numeric_view(name, np.array(columns[name], dtype=np.float64))
        return batch

    def _typed_column(self, splits: Sequence[list[str]], index: int) -> tuple[list, bool]:
        """The typed values of cell ``index`` of every split line.

        Returns ``(values, null_free_numeric)``.  The whole column converts at
        C level when it can; an empty cell or a short (ragged) line reads as
        ``None`` and sends just that column through the per-value fallback.
        """
        try:
            cells = list(map(itemgetter(index), splits))
        except IndexError:
            cells = [line[index] if index < len(line) else "" for line in splits]
        dtype = self._field_types[index]
        convert = dtype.python_type
        if convert is str:
            return ([cell or None for cell in cells] if "" in cells else cells), False
        if convert is not bool:
            try:
                return list(map(convert, cells)), True
            except ValueError:
                pass  # an empty cell; real garbage raises again below
        parse = dtype.parse
        return [parse(cell) if cell else None for cell in cells], False


def write_csv(path: str | Path, schema: RecordType, rows: Iterable[dict], delimiter: str = "|") -> int:
    """Write ``rows`` to ``path`` in CSV form; returns the number of records."""
    names = schema.field_names()
    count = 0
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for row in rows:
            values = []
            for name in names:
                value = row.get(name)
                values.append("" if value is None else str(value))
            handle.write(delimiter.join(values))
            handle.write("\n")
            count += 1
    return count
