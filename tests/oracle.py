"""Reference oracle: what a query means, computed the slow obvious way.

ReCache's contract is that the cache is semantically invisible.  The suites
check it from the outside against this module: a :class:`Query` is evaluated
directly over the registered raw files with ``Expression.evaluate``, a
recursive flatten, a dict join and a plain group-by.  Nothing here touches the
cache, the layouts, the predicate compiler, ``RecordBatch`` or a clock, and
the files are parsed here rather than through the format plugins, so a bug in
any of those cannot hide by being shared with the reference (and an active
fault plan never reaches it).

Declared semantics (pinned by hand-computed cases in ``test_oracle.py``):

* a record flattens to the cross product of its collections; an empty or
  missing collection contributes one row of ``None`` leaves (parent data is
  never dropped).  Lists nested inside list elements unnest fully — the
  engine's ``FlattenPlan`` (``repro/engine/flatten.py``) reads only their
  first element, a documented limitation no shipped dataset reaches;
* a comparison with a ``None`` operand is false (``!=`` included), arithmetic
  over ``None`` is ``None``, division by zero raises;
* a table's row carries the leaf paths the query reads (every leaf when it
  reads none), in sorted order; a joined row carries the build side's fields,
  then the probe side's; an aggregate row the group keys, then one field per
  aggregate in listed order;
* a table whose query fields cross no collection answers once per *record*:
  only the first satisfying flattened row of each record survives;
* joins drop ``None`` keys, hash keys like a dict does (``1 == 1.0 == True``,
  NaN matches only itself by identity), reject shared non-key columns, build
  on the smaller side (left on ties) and emit in probe order with matches in
  build order — the order float sums are folded in, hence part of the contract;
* aggregates skip ``None`` inputs; ``sum`` folds left to right from ``0.0``;
  ``avg``/``min``/``max`` of no values are ``None``; groups appear in
  first-occurrence order and a global aggregate always yields one row.

The comparison contract, declared once in :func:`same_rows`: a float the
engine computed (an aggregate value) equals the oracle's within 1e-9 relative
(NaN equals NaN) — the fold order above is how the engine sums today, not
something a caller may rely on to the last digit — and everything else is
exact: every other value, the order of the rows, and the order of the fields.
"""

from __future__ import annotations

import json
import math

from repro.engine.types import ListType, RecordType


def same_rows(actual: list[dict], expected: list[dict]) -> bool:
    """Does an engine result equal the oracle's under the contract above?"""
    if len(actual) != len(expected):
        return False
    for row, wanted in zip(actual, expected):
        if list(row) != list(wanted):
            return False
        for value, other in zip(row.values(), wanted.values()):
            if type(value) is not type(other):
                return False
            close = isinstance(value, float) and (
                math.isclose(value, other, rel_tol=1e-9) or (math.isnan(value) and math.isnan(other))
            )
            if value != other and not close:
                return False
    return True


def leaf_paths(dtype, prefix: str = "", in_list: bool = False):
    """Yield ``(dotted path, crosses a collection?)`` for every atom leaf."""
    if isinstance(dtype, RecordType):
        for field in dtype.fields:
            path = f"{prefix}.{field.name}" if prefix else field.name
            yield from leaf_paths(field.dtype, path, in_list)
    elif isinstance(dtype, ListType):
        yield from leaf_paths(dtype.element, prefix, True)
    else:
        yield prefix, in_list


def flatten(value, dtype, prefix: str = "") -> list[dict]:
    """The relational rows of one nested value (see the module docstring)."""
    if isinstance(dtype, RecordType):
        rows: list[dict] = [{}]
        for field in dtype.fields:
            path = f"{prefix}.{field.name}" if prefix else field.name
            parts = flatten((value or {}).get(field.name), field.dtype, path)
            rows = [{**row, **part} for row in rows for part in parts]
        return rows
    if isinstance(dtype, ListType):
        elements = value or [None]
        return [row for element in elements for row in flatten(element, dtype.element, prefix)]
    return [{prefix: value}]


def parse_source(source) -> list[dict]:
    """Parse a registered source's raw file into records (blank lines skipped)."""
    text = source.path.read_text(encoding="utf-8")
    lines = [line for line in (raw.rstrip("\r") for raw in text.split("\n")) if line]
    if source.format == "json":
        return [json.loads(line) for line in lines]
    fields = source.schema.fields
    return [
        {
            field.name: field.dtype.parse(cell) if cell != "" else None
            for field, cell in zip(fields, line.split(source.delimiter) + [""] * len(fields))
        }
        for line in lines
    ]


def join_rows(left: list[dict], right: list[dict], left_key: str, right_key: str) -> list[dict]:
    """Equi-join two row lists (see the module docstring for the rules)."""
    if left and right:
        legal = {left_key} if left_key == right_key else set()
        shared = sorted((set(left[0]) & set(right[0])) - legal)
        if shared:
            raise ValueError(f"join has overlapping non-key columns {shared}")
    if len(left) <= len(right):
        build, build_key, probe, probe_key = left, left_key, right, right_key
    else:
        build, build_key, probe, probe_key = right, right_key, left, left_key
    table: dict = {}
    for row in build:
        if row[build_key] is not None:
            table.setdefault(row[build_key], []).append(row)
    return [
        {**match, **row}
        for row in probe
        if row[probe_key] is not None
        for match in table.get(row[probe_key], ())
    ]


def _reduce(func: str, values: list):
    if func == "count":
        return len(values)
    if func in ("min", "max"):
        return (min if func == "min" else max)(values) if values else None
    total = 0.0
    for value in values:
        total += value
    return total if func == "sum" else (total / len(values) if values else None)


def group_rows(rows: list[dict], aggregates, group_by=()) -> list[dict]:
    """Aggregate ``rows``, one output row per group in first-occurrence order."""
    groups: dict[tuple, list[dict]] = {} if group_by else {(): []}
    for row in rows:
        groups.setdefault(tuple(row.get(key) for key in group_by), []).append(row)
    output = []
    for key, members in groups.items():
        result = dict(zip(group_by, key))
        for spec in aggregates:
            values = [spec.expr.evaluate(row) for row in members]
            result[spec.output_name] = _reduce(spec.func, [v for v in values if v is not None])
        output.append(result)
    return output


class Oracle:
    """Evaluates queries over a catalog's raw files; parses each file once."""

    def __init__(self, catalog) -> None:
        self.catalog = catalog
        self._flattened: dict[str, list[list[dict]]] = {}

    def record_rows(self, name: str) -> list[list[dict]]:
        """The flattened rows of every record of source ``name``, per record."""
        if name not in self._flattened:
            source = self.catalog.get(name)
            records = parse_source(source)
            self._flattened[name] = [flatten(record, source.schema) for record in records]
        return self._flattened[name]

    def table_fields(self, query, name: str) -> list[str]:
        """The leaf paths of ``name`` the query reads; every leaf when none."""
        paths = [path for path, _ in leaf_paths(self.catalog.get(name).schema)]
        used = set(query.group_by)
        for spec in query.aggregates:
            used |= spec.expr.referenced_fields()
        used &= set(paths)
        predicate = query.table(name).predicate
        if predicate is not None:
            used |= predicate.referenced_fields()
        for join in query.joins:
            if join.left_source == name:
                used.add(join.left_key)
            if join.right_source == name:
                used.add(join.right_key)
        return sorted(used or paths)

    def table_rows(self, query, name: str) -> list[dict]:
        """One table's selected rows, projected onto the fields the query reads."""
        fields = self.table_fields(query, name)
        nested = {path for path, in_list in leaf_paths(self.catalog.get(name).schema) if in_list}
        per_record = bool(nested) and not nested & set(fields)
        predicate = query.table(name).predicate
        output = []
        for rows in self.record_rows(name):
            satisfying = [row for row in rows if predicate is None or predicate.evaluate(row)]
            for row in satisfying[:1] if per_record else satisfying:
                output.append({field: row[field] for field in fields})
        return output

    def evaluate(self, query) -> list[dict]:
        """The rows ``query`` must return (aggregate rows when it aggregates)."""
        first = query.tables[0].source
        rows, joined = self.table_rows(query, first), {first}
        pending = list(query.joins)
        while pending:  # clauses apply in listed order, pass after pass
            waiting = len(pending)
            for join in list(pending):
                ends = [(join.left_source, join.left_key), (join.right_source, join.right_key)]
                if ends[0][0] not in joined:
                    ends.reverse()
                (near, near_key), (far, far_key) = ends
                if near not in joined:
                    continue  # neither end is reachable yet
                if far not in joined:
                    rows = join_rows(rows, self.table_rows(query, far), near_key, far_key)
                    joined.add(far)
                pending.remove(join)
            if len(pending) == waiting:
                raise ValueError("join graph is not connected to the first table")
        if len(joined) != len(query.tables):
            raise ValueError("some tables are not connected by any join clause")
        if query.aggregates or query.group_by:
            return group_rows(rows, query.aggregates, query.group_by)
        return rows
