"""Expression language used by selection, projection and aggregation operators.

Expressions evaluate over *flattened* rows: plain dictionaries whose keys are
dotted attribute paths (``"o_orderkey"``, ``"lineitems.l_quantity"``).  Each
expression exposes

* :meth:`Expression.evaluate` — compute its value on a row,
* :meth:`Expression.referenced_fields` — the set of attribute paths it reads
  (the workload-monitoring input for ReCache's layout selector),
* :meth:`Expression.signature` — a canonical string used for structural
  equality, which is what cache matching compares ("same operation, same
  arguments", Section 3.2).

Range predicates get a dedicated node (:class:`RangePredicate`) because they
are the unit of ReCache's query-subsumption support (Section 3.3): a cached
range predicate subsumes a new one when its interval fully covers it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence


class Expression:
    """Base class of all expression AST nodes."""

    def evaluate(self, row: Mapping) -> object:
        raise NotImplementedError

    def referenced_fields(self) -> frozenset[str]:
        raise NotImplementedError

    def signature(self) -> str:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Expression) and self.signature() == other.signature()

    def __hash__(self) -> int:
        return hash(self.signature())

    def __repr__(self) -> str:
        return self.signature()


class FieldRef(Expression):
    """Reference to an attribute by dotted path."""

    def __init__(self, path: str) -> None:
        if not path:
            raise ValueError("field path must be non-empty")
        self.path = path

    def evaluate(self, row: Mapping) -> object:
        if self.path in row:
            return row[self.path]
        # Fall back to traversing a nested dict (rows that were not flattened).
        current: object = row
        for part in self.path.split("."):
            if not isinstance(current, Mapping) or part not in current:
                raise KeyError(f"row has no attribute {self.path!r}")
            current = current[part]
        return current

    def referenced_fields(self) -> frozenset[str]:
        return frozenset({self.path})

    def signature(self) -> str:
        return f"${self.path}"


class Literal(Expression):
    """A constant value."""

    def __init__(self, value: object) -> None:
        self.value = value

    def evaluate(self, row: Mapping) -> object:
        return self.value

    def referenced_fields(self) -> frozenset[str]:
        return frozenset()

    def signature(self) -> str:
        if isinstance(self.value, float):
            return f"lit({self.value!r})"
        return f"lit({self.value!r})"


_COMPARATORS: dict[str, Callable[[object, object], bool]] = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


class Comparison(Expression):
    """A binary comparison between two expressions."""

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in _COMPARATORS:
            raise ValueError(f"unsupported comparison operator: {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, row: Mapping) -> bool:
        left = self.left.evaluate(row)
        right = self.right.evaluate(row)
        if left is None or right is None:
            return False
        return _COMPARATORS[self.op](left, right)

    def referenced_fields(self) -> frozenset[str]:
        return self.left.referenced_fields() | self.right.referenced_fields()

    def signature(self) -> str:
        return f"({self.left.signature()}{self.op}{self.right.signature()})"


class And(Expression):
    """Conjunction of one or more predicates."""

    def __init__(self, children: Sequence[Expression]) -> None:
        if not children:
            raise ValueError("And requires at least one child")
        self.children = list(children)

    def evaluate(self, row: Mapping) -> bool:
        return all(child.evaluate(row) for child in self.children)

    def referenced_fields(self) -> frozenset[str]:
        fields: frozenset[str] = frozenset()
        for child in self.children:
            fields |= child.referenced_fields()
        return fields

    def signature(self) -> str:
        inner = "&".join(sorted(child.signature() for child in self.children))
        return f"and({inner})"


class Or(Expression):
    """Disjunction of one or more predicates."""

    def __init__(self, children: Sequence[Expression]) -> None:
        if not children:
            raise ValueError("Or requires at least one child")
        self.children = list(children)

    def evaluate(self, row: Mapping) -> bool:
        return any(child.evaluate(row) for child in self.children)

    def referenced_fields(self) -> frozenset[str]:
        fields: frozenset[str] = frozenset()
        for child in self.children:
            fields |= child.referenced_fields()
        return fields

    def signature(self) -> str:
        inner = "|".join(sorted(child.signature() for child in self.children))
        return f"or({inner})"


class Not(Expression):
    """Negation of a predicate."""

    def __init__(self, child: Expression) -> None:
        self.child = child

    def evaluate(self, row: Mapping) -> bool:
        return not self.child.evaluate(row)

    def referenced_fields(self) -> frozenset[str]:
        return self.child.referenced_fields()

    def signature(self) -> str:
        return f"not({self.child.signature()})"


_ARITHMETIC: dict[str, Callable[[float, float], float]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


class Arithmetic(Expression):
    """A binary arithmetic expression over numeric operands."""

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in _ARITHMETIC:
            raise ValueError(f"unsupported arithmetic operator: {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, row: Mapping) -> object:
        left = self.left.evaluate(row)
        right = self.right.evaluate(row)
        if left is None or right is None:
            return None
        return _ARITHMETIC[self.op](left, right)

    def referenced_fields(self) -> frozenset[str]:
        return self.left.referenced_fields() | self.right.referenced_fields()

    def signature(self) -> str:
        return f"({self.left.signature()}{self.op}{self.right.signature()})"


@dataclass(frozen=True)
class Interval:
    """A closed/open numeric interval, used for subsumption reasoning."""

    low: float
    high: float
    low_inclusive: bool = True
    high_inclusive: bool = True

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ValueError(f"interval low ({self.low}) exceeds high ({self.high})")

    def contains_value(self, value: float) -> bool:
        if value is None:
            return False
        above = value > self.low or (self.low_inclusive and value == self.low)
        below = value < self.high or (self.high_inclusive and value == self.high)
        return above and below

    def covers(self, other: "Interval") -> bool:
        """True when every value satisfying ``other`` also satisfies ``self``."""
        low_ok = self.low < other.low or (
            self.low == other.low and (self.low_inclusive or not other.low_inclusive)
        )
        high_ok = self.high > other.high or (
            self.high == other.high and (self.high_inclusive or not other.high_inclusive)
        )
        return low_ok and high_ok

    def width(self) -> float:
        return self.high - self.low


class RangePredicate(Expression):
    """A range predicate ``low <= field <= high`` over a numeric attribute.

    This is the predicate shape ReCache's subsumption index understands: a
    new predicate can reuse a cache whose interval on the same field fully
    covers it.
    """

    def __init__(
        self,
        field: str,
        low: float = -math.inf,
        high: float = math.inf,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> None:
        self.field = field
        self.interval = Interval(low, high, low_inclusive, high_inclusive)

    @property
    def low(self) -> float:
        return self.interval.low

    @property
    def high(self) -> float:
        return self.interval.high

    def evaluate(self, row: Mapping) -> bool:
        value = row.get(self.field) if self.field in row else FieldRef(self.field).evaluate(row)
        if value is None:
            return False
        return self.interval.contains_value(value)

    def referenced_fields(self) -> frozenset[str]:
        return frozenset({self.field})

    def signature(self) -> str:
        lo = "[" if self.interval.low_inclusive else "("
        hi = "]" if self.interval.high_inclusive else ")"
        return f"range(${self.field}{lo}{self.interval.low},{self.interval.high}{hi})"


_AGG_FUNCS = ("sum", "avg", "min", "max", "count")


@dataclass(frozen=True)
class AggregateSpec:
    """An aggregate to compute, e.g. ``sum(lineitems.l_quantity)``."""

    func: str
    expr: Expression
    alias: str | None = None

    def __post_init__(self) -> None:
        if self.func not in _AGG_FUNCS:
            raise ValueError(f"unsupported aggregate function: {self.func!r}")

    @property
    def output_name(self) -> str:
        if self.alias:
            return self.alias
        return f"{self.func}({self.expr.signature()})"

    def referenced_fields(self) -> frozenset[str]:
        return self.expr.referenced_fields()

    def signature(self) -> str:
        return f"{self.func}({self.expr.signature()})"


# ---------------------------------------------------------------------------
# Predicate analysis helpers
# ---------------------------------------------------------------------------
def conjuncts(expr: Expression | None) -> list[Expression]:
    """Decompose a predicate into its top-level conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, And):
        result: list[Expression] = []
        for child in expr.children:
            result.extend(conjuncts(child))
        return result
    return [expr]


def extract_ranges(expr: Expression | None) -> dict[str, Interval]:
    """Extract per-field intervals from a conjunction of range predicates.

    Non-range conjuncts are ignored (they simply do not participate in the
    subsumption check).  When several conjuncts constrain the same field the
    intersection of their intervals is returned.
    """
    ranges: dict[str, Interval] = {}
    for conjunct in conjuncts(expr):
        interval: Interval | None = None
        field: str | None = None
        if isinstance(conjunct, RangePredicate):
            field, interval = conjunct.field, conjunct.interval
        elif isinstance(conjunct, Comparison):
            field, interval = _comparison_to_interval(conjunct)
        if field is None or interval is None:
            continue
        if field in ranges:
            ranges[field] = _intersect(ranges[field], interval)
        else:
            ranges[field] = interval
    return ranges


def _comparison_to_interval(cmp: Comparison) -> tuple[str | None, Interval | None]:
    """Convert ``field <op> literal`` (or the mirrored form) into an interval."""
    field_side, literal_side, op = None, None, cmp.op
    if isinstance(cmp.left, FieldRef) and isinstance(cmp.right, Literal):
        field_side, literal_side = cmp.left, cmp.right
    elif isinstance(cmp.right, FieldRef) and isinstance(cmp.left, Literal):
        field_side, literal_side = cmp.right, cmp.left
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
    if field_side is None or literal_side is None:
        return None, None
    value = literal_side.value
    if not isinstance(value, (int, float)):
        return None, None
    if op == "<":
        return field_side.path, Interval(-math.inf, value, True, False)
    if op == "<=":
        return field_side.path, Interval(-math.inf, value, True, True)
    if op == ">":
        return field_side.path, Interval(value, math.inf, False, True)
    if op == ">=":
        return field_side.path, Interval(value, math.inf, True, True)
    if op == "==":
        return field_side.path, Interval(value, value, True, True)
    return None, None


def _intersect(a: Interval, b: Interval) -> Interval:
    if a.low > b.low or (a.low == b.low and not a.low_inclusive):
        low, low_inc = a.low, a.low_inclusive
    else:
        low, low_inc = b.low, b.low_inclusive
    if a.high < b.high or (a.high == b.high and not a.high_inclusive):
        high, high_inc = a.high, a.high_inclusive
    else:
        high, high_inc = b.high, b.high_inclusive
    if low > high:
        # Empty intersection: represent as a degenerate empty interval.
        return Interval(low, low, False, False)
    return Interval(low, high, low_inc, high_inc)


def cached_intervals(cached: Expression | None) -> dict[str, Interval] | None:
    """The admission-time half of :func:`predicate_subsumes`: ``cached``'s
    per-field intervals, or ``None`` when it can subsume nothing.

    Conjuncts we cannot analyse make subsumption unsafe on the cached side:
    every one of them must reduce to an interval on its own (a comparison over
    arithmetic, two fields, a string or ``!=`` does not), otherwise the cached
    result is filtered by a constraint :func:`intervals_cover` never sees.  A
    cached predicate of ``None`` (a full scan) has no intervals, so it covers
    everything over the same source.
    """
    if not all(extract_ranges(conjunct) for conjunct in conjuncts(cached)):
        return None
    return extract_ranges(cached)


def intervals_cover(cached: dict[str, Interval], new: dict[str, Interval]) -> bool:
    """The lookup-time half of :func:`predicate_subsumes`: every field the
    cached predicate constrains, the new one constrains at least as tightly."""
    for field, cached_interval in cached.items():
        new_interval = new.get(field)
        if new_interval is None or not cached_interval.covers(new_interval):
            return False
    return True


def predicate_subsumes(cached: Expression | None, new: Expression | None) -> bool:
    """Return True when ``cached``'s result is guaranteed to contain ``new``'s.

    Implements the subsumption rule from Section 3.3: a cached conjunction of
    range predicates subsumes a new conjunction when, for every field the
    cached predicate constrains, the new predicate constrains the same field at
    least as tightly.  A cached predicate of ``None`` (a full scan) subsumes
    everything over the same source.
    """
    intervals = cached_intervals(cached)
    return intervals is not None and intervals_cover(intervals, extract_ranges(new))


def referenced_fields(exprs: Iterable[Expression | AggregateSpec]) -> frozenset[str]:
    """Union of attribute paths referenced by a collection of expressions."""
    fields: frozenset[str] = frozenset()
    for expr in exprs:
        fields |= expr.referenced_fields()
    return fields
