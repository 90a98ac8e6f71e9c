"""Line-delimited JSON input plugin.

JSON is the expensive end of the paper's raw-format spectrum: parsing nested
objects costs far more than splitting a CSV line, which is exactly the cost
asymmetry that makes cost-aware caching pay off.  The plugin decodes each line
**once** with :func:`json.loads`, extracts the wanted leaves straight into
columns with dotted names (Section 4's flattening semantics), carries the
decoded records as the caching payload, and maintains a positional map of
record offsets for lazy caches.
"""

from __future__ import annotations

import json
from operator import methodcaller
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.engine.batch import RecordBatch
from repro.engine.types import AtomType, DataType, Field, ListType, RecordType, flatten_record
from repro.formats.linefile import LineFile


class JSONPlugin(LineFile):
    """Reader for a line-delimited JSON file with a (possibly nested) schema."""

    format_name = "json"

    def __init__(self, path: str | Path, schema: RecordType) -> None:
        super().__init__(path)
        self.schema = schema
        self._pruned_schemas: dict[frozenset, RecordType] = {}
        self._column_plans: dict[frozenset, tuple | None] = {}

    def scan_records(self, fields: Sequence[str] | None = None) -> Iterator[dict]:
        """Yield raw (non-flattened) nested records, one per JSON line."""
        for lines, _ in self._line_chunks(1024):
            yield from _decode_lines(lines)

    def columns_from_payload(
        self, payload: Sequence[dict], fields: Sequence[str]
    ) -> tuple[dict[str, list], list[int]]:
        """Flattened columns of ``fields`` from decoded records a scan attached.

        Returns ``(columns, record_row_counts)``.  Two layers of projection
        pushdown keep this cheap: the flatten schema is pruned to the wanted
        leaves (plus multiplicity placeholders, see :meth:`_pruned_schema`),
        and for schemas with at most one row-multiplying list a compiled
        column plan extracts wanted values straight into the columns without
        building per-row dictionaries at all.  Both produce the same columns
        as the full ``flatten_record`` path, which remains the fallback for
        cross-product (multi-list) schemas.
        """
        flatten_schema = self._pruned_schema(fields)
        plan = self._column_plan(fields, flatten_schema)
        columns: dict[str, list] = {name: [] for name in fields}
        if plan is None:
            counts = []
            for record in payload:
                rows = flatten_record(record, flatten_schema)
                counts.append(len(rows))
                for row in rows:
                    for name in fields:
                        columns[name].append(row.get(name))
            return columns, counts
        list_keys, flat_cols, nested_cols = plan
        if list_keys is None:
            for name, get in flat_cols:
                columns[name] = list(map(get, payload))
            return columns, [1] * len(payload)
        counts = []
        for record in payload:
            obj = record
            for key in list_keys:
                obj = obj.get(key) if obj else None
            elements = obj if obj else [None]
            n = len(elements)
            for name, get in flat_cols:
                value = get(record)
                if n == 1:
                    columns[name].append(value)
                else:
                    columns[name].extend([value] * n)
            for name, get in nested_cols:
                columns[name].extend(map(get, elements))
            counts.append(n)
        return columns, counts

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

    def _pruned_schema(self, wanted: Sequence[str]) -> RecordType:
        """Projection-pushed schema for the batched scan.

        Flattening the full schema per record dominates the batched miss path,
        so ``scan_batches`` flattens over a pruned schema instead: atoms the
        query never reads are dropped, but every list node survives (with one
        representative leaf when nothing under it is wanted) because each list
        contributes a factor to the flattened row cross product.  The pruned
        flatten therefore produces the same row count, row order and wanted
        values as the full-schema flatten — only the unread columns vanish.
        """
        key = frozenset(wanted)
        cached = self._pruned_schemas.get(key)
        if cached is None:
            pruned = _prune_record("", self.schema, key)
            cached = pruned if pruned is not None else RecordType([])
            self._pruned_schemas[key] = cached
        return cached

    def _column_plan(self, wanted: Sequence[str], schema: RecordType) -> tuple | None:
        """Compiled direct-to-columns extractors for ``scan_batches``.

        Valid only when ``schema`` (already pruned) has at most one
        row-multiplying list — then every record's flattened rows are either a
        single row (no list) or one row per element of that list, and each
        wanted leaf reduces to a key walk from the record root (flat leaves)
        or from the list element (nested leaves).  Returns
        ``(list_keys, flat_cols, nested_cols)`` or ``None`` when the schema
        needs the general cross-product flatten.
        """
        key = frozenset(wanted)
        if key not in self._column_plans:
            self._column_plans[key] = _build_column_plan(wanted, schema)
        return self._column_plans[key]


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


def _prune_type(prefix: str, dtype: DataType, wanted: frozenset) -> DataType | None:
    """Prune ``dtype`` down to the leaves in ``wanted``; None when nothing survives.

    List nodes always survive — each one multiplies the flattened row count by
    its element count, so dropping one would change record row multiplicity.
    A list whose subtree holds no wanted leaf keeps a single minimal leaf as a
    placeholder for that multiplicity.
    """
    if isinstance(dtype, AtomType):
        return dtype if prefix in wanted else None
    if isinstance(dtype, ListType):
        inner = _prune_type(prefix, dtype.element, wanted)
        if inner is None:
            inner = _minimal_type(dtype.element)
        return ListType(inner)
    return _prune_record(prefix, dtype, wanted)


def _prune_record(prefix: str, dtype: RecordType, wanted: frozenset) -> RecordType | None:
    kept = []
    for field in dtype.fields:
        child = f"{prefix}.{field.name}" if prefix else field.name
        sub = _prune_type(child, field.dtype, wanted)
        if sub is not None:
            kept.append(Field(field.name, sub))
    return RecordType(kept) if kept else None


def _minimal_type(dtype: DataType) -> DataType:
    """Smallest subtree preserving ``dtype``'s flattening multiplicity."""
    if isinstance(dtype, AtomType):
        return dtype
    if isinstance(dtype, ListType):
        return ListType(_minimal_type(dtype.element))
    if not dtype.fields:
        return RecordType([])
    field = dtype.fields[0]
    return RecordType([Field(field.name, _minimal_type(field.dtype))])


#: Step marker: take the first element of an inner list (flattening keeps the
#: first level of list-of-list nesting only; deeper levels never multiply rows).
_FIRST = object()


def _multiplying_list_paths(dtype: DataType, keys: tuple = (), inside: bool = False) -> list[tuple]:
    """Key paths of every list that multiplies flattened row counts.

    A list reached through another list does not multiply (``_fill_element``
    keeps its first element only), so it is excluded.
    """
    out: list[tuple] = []
    if isinstance(dtype, ListType):
        if not inside:
            out.append(keys)
        out.extend(_multiplying_list_paths(dtype.element, keys, True))
    elif isinstance(dtype, RecordType):
        for field in dtype.fields:
            out.extend(_multiplying_list_paths(field.dtype, keys + (field.name,), inside))
    return out


def _leaf_steps(prefix: str, dtype: DataType, steps: tuple, out: dict) -> None:
    """Map each leaf path to its extraction steps (dict keys and ``_FIRST``)."""
    if isinstance(dtype, AtomType):
        out[prefix] = steps
        return
    if isinstance(dtype, ListType):
        _leaf_steps(prefix, dtype.element, steps + (_FIRST,), out)
        return
    for field in dtype.fields:
        child = f"{prefix}.{field.name}" if prefix else field.name
        _leaf_steps(child, field.dtype, steps + (field.name,), out)


def _compile_steps(steps: tuple, from_record: bool = False):
    """Compile extraction steps into a getter mirroring flatten semantics.

    Falsy intermediates (missing / ``None`` / empty) resolve to ``None``,
    exactly as ``value or {}`` does in ``_extend_rows`` / ``_fill_element``.
    ``from_record`` says the getter is applied to the decoded record itself
    (always a dict, unlike a list element), so a top-level atom is one
    C-level ``dict.get``.
    """
    if not steps:
        return lambda obj: obj
    if from_record and len(steps) == 1:
        return methodcaller("get", steps[0])

    def get(obj, _steps=steps):
        for step in _steps:
            if not obj:
                return None
            obj = obj[0] if step is _FIRST else obj.get(step)
        return obj

    return get


def _build_column_plan(wanted: Sequence[str], schema: RecordType) -> tuple | None:
    lists = _multiplying_list_paths(schema)
    if len(lists) > 1:
        return None
    list_keys = lists[0] if lists else None
    steps_by_leaf: dict[str, tuple] = {}
    _leaf_steps("", schema, (), steps_by_leaf)
    flat_cols: list[tuple] = []
    nested_cols: list[tuple] = []
    for name in wanted:
        steps = steps_by_leaf.get(name)
        if steps is None:
            # Leaf absent from the schema: the row dicts never held it, so
            # ``row.get`` yielded None — keep that contract.
            flat_cols.append((name, lambda obj: None))
        elif list_keys is not None and steps[: len(list_keys) + 1] == list_keys + (_FIRST,):
            nested_cols.append((name, _compile_steps(steps[len(list_keys) + 1 :])))
        else:
            flat_cols.append((name, _compile_steps(steps, from_record=True)))
    return (list_keys, flat_cols, nested_cols)
