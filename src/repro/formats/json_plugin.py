"""Line-delimited JSON input plugin.

JSON is the expensive end of the paper's raw-format spectrum: parsing nested
objects costs far more than splitting a CSV line, which is exactly the cost
asymmetry that makes cost-aware caching pay off.  The plugin decodes each line
**once** with :func:`json.loads`, extracts the wanted leaves straight into
columns with dotted names through the schema's
:class:`~repro.engine.flatten.FlattenPlan` (Section 4's flattening rule, which
this module does not restate), carries the decoded records as the caching
payload, and maintains a positional map of record offsets for lazy caches.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.engine.batch import RecordBatch
from repro.engine.flatten import flatten_plan
from repro.engine.types import RecordType
from repro.formats.linefile import LineFile


class JSONPlugin(LineFile):
    """Reader for a line-delimited JSON file with a (possibly nested) schema."""

    format_name = "json"

    def __init__(self, path: str | Path, schema: RecordType) -> None:
        super().__init__(path)
        self.schema = schema
        self.plan = flatten_plan(schema)

    def scan_records(self, fields: Sequence[str] | None = None) -> Iterator[dict]:
        """Yield raw (non-flattened) nested records, one per JSON line."""
        for lines, _ in self._line_chunks(1024):
            yield from _decode_lines(lines)

    def columns_from_payload(
        self, payload: Sequence[dict], fields: Sequence[str]
    ) -> tuple[dict[str, list], list[int]]:
        """Flattened columns of ``fields`` from decoded records a scan attached.

        Returns ``(columns, record_row_counts)``; see
        :meth:`~repro.engine.flatten.FlattenPlan.columns`.
        """
        return self.plan.columns(payload, fields)

    def _resolve_fields(self, fields: Sequence[str] | None) -> list[str]:
        return list(fields) if fields is not None else self.schema.flattened().field_names()

    def _batch(
        self, lines: list[str], wanted: Sequence[str], sizes: list[int] | None
    ) -> RecordBatch:
        """One batch of ``wanted`` columns; the payload is each line's decoded object.

        Nested records flatten into several rows each, so the batch carries
        ``record_row_counts`` to keep the record grouping (admission sampling
        and record-level dedup both operate on records, not rows).
        """
        records = _decode_lines(lines)
        columns, counts = self.columns_from_payload(records, wanted)
        return RecordBatch(
            columns,
            row_count=sum(counts),
            record_row_counts=counts,
            records=records if sizes is not None else None,
            record_bytes=sizes,
        )


def _decode_lines(lines: Sequence[str]) -> list:
    """Decode a chunk of JSON lines with one parser call (as one JSON array)."""
    records = json.loads(f"[{','.join(lines)}]")
    if len(records) != len(lines):
        raise ValueError("a JSON line holds more than one value")
    return records


def write_json_lines(path: str | Path, records: Iterable[dict]) -> int:
    """Write nested records to ``path`` as line-delimited JSON; returns count."""
    count = 0
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, separators=(",", ":")))
            handle.write("\n")
            count += 1
    return count
