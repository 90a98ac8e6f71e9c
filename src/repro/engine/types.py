"""Shared engine types: the nested data model and result containers.

The paper's substrate (Proteus) expresses heterogeneous data through a nested
data model: records whose fields are atoms, lists, or further records.  The
classes here mirror that model and provide the schema utilities ReCache needs:

* enumerating *leaf paths* (dotted attribute paths such as
  ``"lineitems.l_quantity"``),
* distinguishing nested paths (paths that traverse a list) from non-nested
  ones — the distinction that drives the Parquet-vs-columnar layout decision,
* computing the *flattened* relational schema obtained by the flattening
  transformation described in Section 4 of the paper.

The module also defines :class:`ColumnarResult`, what every plan execution
produces: the pipeline's :class:`~repro.engine.batch.RecordBatch` stream.  A
query with ``result_format="columnar"`` receives it as is; otherwise
``to_rows()`` is applied once, at the engine's edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.engine.batch import RecordBatch, rows_from_batches


class DataType:
    """Base class for all data types in the nested model."""

    #: short type code used in signatures
    code = "?"

    def is_atom(self) -> bool:
        return isinstance(self, AtomType)

    def signature(self) -> str:
        return self.code

    def __repr__(self) -> str:
        return self.signature()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DataType) and self.signature() == other.signature()

    def __hash__(self) -> int:
        return hash(self.signature())


class AtomType(DataType):
    """A scalar type (integer, float, string or boolean)."""

    def __init__(self, code: str, python_type: type) -> None:
        self.code = code
        self.python_type = python_type

    def parse(self, text: str):
        """Parse a raw textual value (as found in a CSV file) into Python."""
        if self.python_type is bool:
            return text.strip().lower() in ("1", "true", "t", "yes")
        return self.python_type(text)


#: Singleton atom types used throughout the engine.
INT = AtomType("i", int)
FLOAT = AtomType("f", float)
STRING = AtomType("s", str)
BOOL = AtomType("b", bool)

_ATOMS_BY_CODE = {atom.code: atom for atom in (INT, FLOAT, STRING, BOOL)}


def atom_from_code(code: str) -> AtomType:
    """Return the singleton atom type for a one-character type code."""
    try:
        return _ATOMS_BY_CODE[code]
    except KeyError as exc:
        raise ValueError(f"unknown atom type code: {code!r}") from exc


@dataclass(frozen=True)
class Field:
    """A named, typed field of a record."""

    name: str
    dtype: DataType

    def signature(self) -> str:
        return f"{self.name}:{self.dtype.signature()}"


class ListType(DataType):
    """A homogeneous collection type (JSON arrays)."""

    def __init__(self, element: DataType) -> None:
        self.element = element

    def signature(self) -> str:
        return f"[{self.element.signature()}]"


class RecordType(DataType):
    """An ordered collection of named fields (JSON objects / table rows)."""

    def __init__(self, fields: Sequence[Field]) -> None:
        self.fields = list(fields)
        self._by_name = {f.name: f for f in self.fields}
        if len(self._by_name) != len(self.fields):
            raise ValueError("duplicate field names in record type")

    def signature(self) -> str:
        inner = ",".join(f.signature() for f in self.fields)
        return f"{{{inner}}}"

    def field(self, name: str) -> Field:
        try:
            return self._by_name[name]
        except KeyError as exc:
            raise KeyError(f"no field named {name!r} in {self.signature()}") from exc

    def has_field(self, name: str) -> bool:
        return name in self._by_name

    def field_names(self) -> list[str]:
        return [f.name for f in self.fields]

    # ------------------------------------------------------------------
    # Path utilities
    # ------------------------------------------------------------------
    def leaf_paths(self) -> list[str]:
        """Return all dotted paths to atom-typed leaves, in schema order."""
        return [path for path, _ in self.leaf_items()]

    def leaf_items(self) -> list[tuple[str, AtomType]]:
        """Return ``(path, atom_type)`` pairs for all leaves, in schema order."""
        items: list[tuple[str, AtomType]] = []
        for field in self.fields:
            items.extend(_leaf_items(field.name, field.dtype))
        return items

    def path_type(self, path: str) -> DataType:
        """Resolve the type at a dotted path (descending through lists).

        A field whose *name* itself contains dots (the flattened schemas
        produced by :meth:`flattened`) takes precedence over path traversal.
        """
        if self.has_field(path):
            return self.field(path).dtype
        current: DataType = self
        for part in path.split("."):
            while isinstance(current, ListType):
                current = current.element
            if not isinstance(current, RecordType):
                raise KeyError(f"path {path!r} descends into non-record type")
            current = current.field(part).dtype
        return current

    def is_nested_path(self, path: str) -> bool:
        """True if ``path`` traverses a list somewhere along the way.

        Nested paths are the ones whose columns are "long" in a flattened
        relational layout and "short" in the Parquet layout's parent columns.
        """
        if self.has_field(path):
            # Dotted field names of already-flattened schemas resolve directly.
            return isinstance(self.field(path).dtype, ListType)
        current: DataType = self
        parts = path.split(".")
        for index, part in enumerate(parts):
            while isinstance(current, ListType):
                current = current.element
            if not isinstance(current, RecordType):
                raise KeyError(f"path {path!r} descends into non-record type")
            current = current.field(part).dtype
            if isinstance(current, ListType) and index < len(parts) - 1:
                return True
        # A terminal list of atoms also counts as nested (it flattens).
        return isinstance(current, ListType)

    def nested_paths(self) -> list[str]:
        return [path for path in self.leaf_paths() if self.is_nested_path(path)]

    def non_nested_paths(self) -> list[str]:
        return [path for path in self.leaf_paths() if not self.is_nested_path(path)]

    def list_fields(self) -> list[str]:
        """Names of top-level fields whose type is a list."""
        return [f.name for f in self.fields if isinstance(f.dtype, ListType)]

    def flattened(self) -> "RecordType":
        """The relational schema obtained by flattening nested collections.

        Each leaf path becomes a flat field whose name is the dotted path, as
        in the paper's example where ``{"a":1,"b":4,"c":[4,6,9]}`` flattens
        into rows over columns ``a``, ``b`` and ``c``.
        """
        return RecordType([Field(path, atom) for path, atom in self.leaf_items()])

    def is_flat(self) -> bool:
        """True when every field is an atom (purely relational schema)."""
        return all(isinstance(f.dtype, AtomType) for f in self.fields)


def _leaf_items(prefix: str, dtype: DataType) -> Iterator[tuple[str, AtomType]]:
    if isinstance(dtype, AtomType):
        yield prefix, dtype
        return
    if isinstance(dtype, ListType):
        yield from _leaf_items(prefix, dtype.element)
        return
    if isinstance(dtype, RecordType):
        for field in dtype.fields:
            yield from _leaf_items(f"{prefix}.{field.name}", field.dtype)
        return
    raise TypeError(f"unsupported data type: {dtype!r}")


def flatten_record(record: dict, schema: RecordType) -> list[dict]:
    """Flatten one nested record into relational rows with dotted column names.

    Follows the flattening semantics described in Section 4 of the paper: a
    record whose field is a list of N elements produces N output rows, each
    duplicating the non-nested fields.  A record with several independent list
    fields produces the cross product of their flattenings.  Empty lists
    contribute a single row with ``None`` for the nested columns so that no
    parent data is silently dropped.
    """
    rows: list[dict] = [{}]
    for field in schema.fields:
        value = record.get(field.name)
        rows = _extend_rows(rows, field.name, field.dtype, value)
    return rows


def _extend_rows(rows: list[dict], prefix: str, dtype: DataType, value) -> list[dict]:
    if isinstance(dtype, AtomType):
        for row in rows:
            row[prefix] = value
        return rows
    if isinstance(dtype, RecordType):
        value = value or {}
        for field in dtype.fields:
            rows = _extend_rows(rows, f"{prefix}.{field.name}", field.dtype, value.get(field.name))
        return rows
    if isinstance(dtype, ListType):
        elements = value if value else [None]
        expanded: list[dict] = []
        for row in rows:
            for element in elements:
                new_row = dict(row)
                _fill_element(new_row, prefix, dtype.element, element)
                expanded.append(new_row)
        return expanded
    raise TypeError(f"unsupported data type: {dtype!r}")


def _fill_element(row: dict, prefix: str, dtype: DataType, element) -> None:
    if isinstance(dtype, AtomType):
        row[prefix] = element
        return
    if isinstance(dtype, RecordType):
        element = element or {}
        for field in dtype.fields:
            _fill_element(row, f"{prefix}.{field.name}", field.dtype, element.get(field.name))
        return
    if isinstance(dtype, ListType):
        # Nested list-of-list: flattenings nest recursively; keep the first
        # level only, deeper levels are rare in the paper's datasets.
        elements = element if element else [None]
        _fill_element(row, prefix, dtype.element, elements[0])
        return
    raise TypeError(f"unsupported data type: {dtype!r}")


class ColumnarResult:
    """Columnar query output backed by the pipeline's record batches.

    The executor's only output.  A query that asks for columnar output
    gets it directly, so ``rows_returned``-heavy queries skip the
    one-dict-per-row materialization entirely and read whole columns
    (:meth:`column` / :meth:`numeric_column`); every other query gets
    :meth:`to_rows` of it — same per-batch field sets, same row order, same
    value objects — so execution, reports and cache accounting cannot differ
    between the two.
    """

    __slots__ = ("_batches",)

    def __init__(self, batches: Sequence["RecordBatch"]) -> None:
        self._batches = [batch for batch in batches if batch.row_count]

    @classmethod
    def from_rows(cls, rows: Sequence[dict]) -> "ColumnarResult":
        """Wrap row dictionaries of one field set (the inverse of :meth:`to_rows`).

        The serving tier uses it for a ``"columnar"`` duplicate coalesced
        onto a ``"rows"`` execution.
        """
        if not rows:
            return cls([])
        return cls([RecordBatch.from_rows(list(rows))])

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def row_count(self) -> int:
        return sum(batch.row_count for batch in self._batches)

    def __len__(self) -> int:
        return self.row_count

    @property
    def batches(self) -> list["RecordBatch"]:
        """The underlying record batches (shared, not copied)."""
        return list(self._batches)

    def field_names(self) -> list[str]:
        """First-seen union of the batches' field names."""
        names: list[str] = []
        seen: set[str] = set()
        for batch in self._batches:
            for name in batch.columns:
                if name not in seen:
                    seen.add(name)
                    names.append(name)
        return names

    # ------------------------------------------------------------------
    # Columnar access
    # ------------------------------------------------------------------
    def column(self, name: str) -> list:
        """One result column across all batches (missing fields read ``None``)."""
        values: list = []
        for batch in self._batches:
            values.extend(batch.column(name))
        return values

    def numeric_column(self, name: str) -> "np.ndarray | None":
        """A float64 view of one column, or ``None`` when not purely numeric.

        Mirrors :meth:`RecordBatch.numeric_view` (``None`` becomes NaN), so a
        caller can run further NumPy reductions on the result without ever
        materializing rows.  The returned array is read-only: a single-batch
        result may alias a cache layout's internal column array (batches flow
        out of warm scans by reference), and an in-place write through that
        alias would silently corrupt the cached data for every later query.
        """
        views = []
        for batch in self._batches:
            view = batch.numeric_view(name)
            if view is None:
                return None
            views.append(view)
        if not views:
            return None
        merged = views[0].view() if len(views) == 1 else np.concatenate(views)
        merged.flags.writeable = False
        return merged

    # ------------------------------------------------------------------
    # Row materialization (the parity exit)
    # ------------------------------------------------------------------
    def to_rows(self) -> list[dict]:
        """The row dictionaries a query receives by default."""
        return rows_from_batches(self._batches)

    def iter_rows(self) -> Iterator[dict]:
        for batch in self._batches:
            yield from batch.iter_rows()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ColumnarResult(rows={self.row_count}, fields={len(self.field_names())})"
