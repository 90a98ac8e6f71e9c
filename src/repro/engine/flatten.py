"""Section 4's flattening rule, defined once.

A nested record flattens into the cross product of its lists, taken in schema
order (earlier lists vary slowest), with its flat leaves repeated on every
row.  An empty or missing list contributes one row of ``None`` leaves, so no
parent data is dropped.  A list inside a list element does not multiply rows:
its first element is read.

:class:`FlattenPlan` holds that rule for one schema, and every path that
needs row multiplicity reads it: the JSON plugin's miss path and
``build_layout("columnar", records=)`` flatten through
:meth:`FlattenPlan.columns`, and the Parquet layout keeps
:meth:`FlattenPlan.list_counts` of its records and gathers its stripes with
:func:`row_indexes`.  As in Dremel (Melnik et al., VLDB 2010), list structure
is recorded apart from the leaves a reader asks for, so reading one list's
leaves still multiplies by every other list.
"""

from __future__ import annotations

from functools import lru_cache
from operator import methodcaller
from typing import Sequence

import numpy as np

from repro.engine.types import AtomType, DataType, ListType, RecordType

#: Step marker: take the first element of a list inside a list element.
_FIRST = object()


class FlattenPlan:
    """The flattening rule of one schema: its lists and each leaf's place.

    ``lists`` holds the key path of every row-multiplying list, in schema
    order.  Each leaf belongs to at most one of them and reads its value by
    key steps from the record (flat leaf) or from the list element.
    """

    def __init__(self, schema: RecordType) -> None:
        self.lists: list[tuple[str, ...]] = []
        #: leaf path -> (index into ``lists`` or None, key steps)
        self._leaves: dict[str, tuple[int | None, tuple]] = {}
        self._walk("", schema, (), None)
        #: compiled extractors per requested field set
        self._extractors: dict[frozenset, tuple] = {}

    def _walk(self, prefix: str, dtype: DataType, steps: tuple, owner: int | None) -> None:
        if isinstance(dtype, AtomType):
            self._leaves[prefix] = (owner, steps)
        elif isinstance(dtype, ListType):
            if owner is None:
                self.lists.append(steps)
                self._walk(prefix, dtype.element, (), len(self.lists) - 1)
            else:
                self._walk(prefix, dtype.element, steps + (_FIRST,), owner)
        elif isinstance(dtype, RecordType):
            for field in dtype.fields:
                child = f"{prefix}.{field.name}" if prefix else field.name
                self._walk(child, field.dtype, steps + (field.name,), owner)
        else:
            raise TypeError(f"unsupported data type: {dtype!r}")

    def list_of(self, path: str) -> int | None:
        """The index of the list ``path`` lies in, or ``None`` for a flat leaf."""
        return self._leaves[path][0]

    def list_counts(self, records: Sequence[dict]) -> np.ndarray:
        """An int32 (lists x records) matrix of ``max(1, len(list))``.

        Its column product is each record's row count.
        """
        counts = np.ones((len(self.lists), len(records)), dtype=np.int32)
        for index, keys in enumerate(self.lists):
            counts[index] = [len(_elements(record, keys)) for record in records]
        return counts

    def columns(
        self, records: Sequence[dict], fields: Sequence[str]
    ) -> tuple[dict[str, list], list[int]]:
        """The flattened columns of ``fields`` over ``records`` and each record's row count.

        A field outside the schema reads ``None`` on every row.
        """
        key = frozenset(fields)
        extract = self._extractors.get(key)
        if extract is None:
            extract = self._extractors[key] = self._compile(fields)
        flat_cols, nested_cols = extract
        columns: dict[str, list] = {name: [] for name in fields}
        if not self.lists:
            for name, get in flat_cols:
                columns[name] = list(map(get, records))
            return columns, [1] * len(records)
        if len(self.lists) == 1:
            counts = _one_list_columns(records, self.lists[0], flat_cols, nested_cols, columns)
            return columns, counts
        elements = [[_elements(record, keys) for record in records] for keys in self.lists]
        counts = np.array([list(map(len, per_record)) for per_record in elements], dtype=np.int32)
        for owner, cols in [(None, flat_cols), *enumerate(nested_cols)]:
            if not cols:
                continue
            if owner is None:
                sources = records
            else:
                sources = [element for per_record in elements[owner] for element in per_record]
            rows = row_indexes(counts, owner)
            for name, get in cols:
                values = list(map(get, sources))
                columns[name] = list(map(values.__getitem__, rows))
        row_counts = counts.prod(axis=0, dtype=np.int64)
        return columns, list(map(int, row_counts))

    def _compile(self, fields: Sequence[str]) -> tuple[list, list]:
        """``(flat_cols, nested_cols)``: getters from the record, and per list from its element."""
        flat_cols: list[tuple] = []
        nested_cols: list[list[tuple]] = [[] for _ in self.lists]
        for name in fields:
            owner, steps = self._leaves.get(name, (None, None))
            if steps is None:
                flat_cols.append((name, _none))
            elif owner is None:
                flat_cols.append((name, _compile_steps(steps, from_record=True)))
            else:
                nested_cols[owner].append((name, _compile_steps(steps)))
        return flat_cols, nested_cols


@lru_cache(maxsize=None)
def flatten_plan(schema: RecordType) -> FlattenPlan:
    """The (memoised) :class:`FlattenPlan` of ``schema``."""
    return FlattenPlan(schema)


def row_indexes(counts: np.ndarray, list_index: int | None) -> np.ndarray:
    """For each flattened row of the records whose list counts are ``counts``,
    the record it belongs to (``list_index is None``) or the element of list
    ``list_index`` it reads, counted from the first record's first element.

    This is the one index rule: row ``j`` of record ``i`` reads element
    ``offset_k[i] + (j // inner_k[i]) % count_k[i]`` of list ``k``, where
    ``inner_k`` is the product of the counts of the lists after ``k``.
    """
    row_counts = counts.prod(axis=0, dtype=np.int64)
    owners = np.repeat(np.arange(len(row_counts)), row_counts)
    if list_index is None:
        return owners
    count = counts[list_index].astype(np.int64)
    offsets = np.cumsum(count) - count
    row_starts = np.cumsum(row_counts) - row_counts
    inner = counts[list_index + 1 :].prod(axis=0, dtype=np.int64)
    within = np.arange(len(owners)) - row_starts[owners]
    return offsets[owners] + (within // inner[owners]) % count[owners]


def _one_list_columns(records, keys, flat_cols, nested_cols, columns) -> list[int]:
    """:meth:`FlattenPlan.columns` for one list: rows are that list's elements."""
    (element_cols,) = nested_cols
    counts = []
    for record in records:
        elements = _elements(record, keys)
        n = len(elements)
        for name, get in flat_cols:
            value = get(record)
            if n == 1:
                columns[name].append(value)
            else:
                columns[name].extend([value] * n)
        for name, get in element_cols:
            columns[name].extend(map(get, elements))
        counts.append(n)
    return counts


def _elements(record: dict, keys: tuple) -> list:
    """The elements of the list at ``keys``; ``[None]`` when it is empty or missing."""
    obj = record
    for key in keys:
        obj = obj.get(key) if obj else None
    return obj if obj else [None]


def _none(obj) -> None:
    return None


def _compile_steps(steps: tuple, from_record: bool = False):
    """Compile key steps into a getter.

    A falsy step (missing, ``None``, empty) reads ``None``.  ``from_record``
    says the getter is applied to the decoded record itself (always a dict,
    unlike a list element), so a top-level atom is one C-level ``dict.get``.
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
