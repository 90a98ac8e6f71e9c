"""Shared engine types: the nested data model and result containers.

The paper's substrate (Proteus) expresses heterogeneous data through a nested
data model: records whose fields are atoms, lists, or further records.  The
classes here mirror that model and provide the schema utilities ReCache needs:

* enumerating *leaf paths* (dotted attribute paths such as
  ``"lineitems.l_quantity"``),
* distinguishing nested paths (paths that traverse a list) from non-nested
  ones — the distinction that drives the Parquet-vs-columnar layout decision,
* computing the *flattened* relational schema obtained by the flattening
  transformation described in Section 4 of the paper (the rows a record
  flattens into are defined in :mod:`repro.engine.flatten`).

The module also defines :class:`ColumnarResult`, what every plan execution
produces: the pipeline's :class:`~repro.engine.batch.RecordBatch` stream.  A
query with ``result_format="columnar"`` receives it as is; otherwise
``to_rows()`` is applied once, at the engine's edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.engine.batch import RecordBatch, rows_from_batches


class DataType:
    """Base class for all data types in the nested model."""

    #: short type code used in signatures
    code = "?"

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


class ColumnarResult:
    """Columnar query output backed by the pipeline's record batches.

    The executor's only output.  A query that asks for columnar output
    gets it directly, so ``rows_returned``-heavy queries skip the
    one-dict-per-row materialization entirely and read whole columns
    (:meth:`column`); every other query gets
    :meth:`to_rows` of it — same per-batch field sets, same row order, same
    value objects — so execution, reports and cache accounting cannot differ
    between the two.
    """

    __slots__ = ("_batches",)

    def __init__(self, batches: Sequence["RecordBatch"]) -> None:
        self._batches = [batch for batch in batches if batch.row_count]

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
