"""Predicate and aggregate-input evaluation over record batches.

Proteus generates LLVM code specialized to each query.  Here a predicate
becomes a NumPy mask evaluator (:func:`compile_batch_predicate`) for numeric
comparisons, ranges and their boolean combinations: ``None`` values become
NaN, which fails every comparison but ``!=`` (masked by validity instead)
exactly like the interpreter's null rule.  Whatever the mask cannot take —
string comparisons, division (whose ``ZeroDivisionError`` NumPy would
silently turn into inf/NaN), columns that turn out non-numeric at runtime —
and compound aggregate inputs evaluate :meth:`Expression.evaluate`, the
evaluator the reference oracle uses, row by row in :func:`_per_row`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.engine.batch import RecordBatch
from repro.engine.expressions import (
    AggregateSpec,
    And,
    Arithmetic,
    Comparison,
    Expression,
    FieldRef,
    Literal,
    Not,
    Or,
    RangePredicate,
)


def aggregate_values(spec: AggregateSpec, batch: RecordBatch) -> list:
    """The aggregate's input values for every row of a batch.

    A plain field reference reads the column directly; a compound expression
    is evaluated per row.
    """
    expr = spec.expr
    if isinstance(expr, FieldRef):
        return batch.column(expr.path)
    return _per_row(expr.evaluate, batch, sorted(expr.referenced_fields()))


def _per_row(  # rowwise-fallback: the one per-row evaluator, for expressions NumPy cannot take
    function: Callable[[dict], object], batch: RecordBatch, fields: list[str]
) -> list:
    """``function(row)`` for every row of ``batch``, in row order.

    One preallocated row dict binds every field of ``fields`` (a column the
    batch lacks reads as ``None``) and is rebound in place per row: the
    evaluators only read it synchronously, so reuse is safe and saves a dict
    allocation per row.
    """
    columns = [(name, batch.column(name)) for name in fields]
    row = dict.fromkeys(fields)
    out = []
    for i in range(batch.row_count):
        for name, column in columns:
            row[name] = column[i]
        out.append(function(row))
    return out


# ---------------------------------------------------------------------------
# Batch (vectorized) predicate compilation
# ---------------------------------------------------------------------------
class _NotVectorizable(Exception):
    """The expression cannot be translated into NumPy mask arithmetic."""


_NUMPY_COMPARATORS = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "==": np.equal,
    "!=": np.not_equal,
}

_NUMPY_ARITHMETIC = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    # "/" is intentionally absent: the interpreter raises ZeroDivisionError,
    # which NumPy would silently turn into inf/NaN.
}


def _vector_value(expr: Expression):
    """``batch -> ndarray | scalar`` evaluator, or raise :class:`_NotVectorizable`.

    The returned closure yields ``None`` at runtime when a referenced column
    turns out not to be numeric, signalling the caller to fall back.
    """
    if isinstance(expr, FieldRef):
        path = expr.path
        return lambda batch: batch.numeric_view(path)
    if isinstance(expr, Literal):
        value = expr.value
        if not isinstance(value, (int, float)):
            raise _NotVectorizable
        constant = float(value)
        return lambda batch: constant
    if isinstance(expr, Arithmetic):
        op = _NUMPY_ARITHMETIC.get(expr.op)
        if op is None:
            raise _NotVectorizable
        left = _vector_value(expr.left)
        right = _vector_value(expr.right)

        def value(batch: RecordBatch):
            lhs = left(batch)
            rhs = right(batch)
            if lhs is None or rhs is None:
                return None
            # NaN propagation mirrors the interpreter's None propagation.
            return op(lhs, rhs)

        return value
    raise _NotVectorizable


def _vector_validity(expr: Expression):
    """``batch -> bool ndarray`` of rows where every leaf field of ``expr``
    is non-``None``, or ``None`` when the operand can never be null.

    A comparison operand is null in ``Expression.evaluate`` exactly when one
    of its leaf fields is (arithmetic propagates ``None``), so the vectorized
    mask ANDs the per-column validity views of those leaves.
    Layouts with striped definition levels pre-seed the views from
    ``def == max_def`` arrays, so no Python values are touched.
    """
    if isinstance(expr, Literal):
        return None
    paths = sorted(expr.referenced_fields())
    if not paths:
        return None

    def validity(batch: RecordBatch):
        combined = None
        for path in paths:
            mask = batch.validity_view(path)
            combined = mask if combined is None else combined & mask
        return combined

    return validity


def _vector_mask(expr: Expression):
    """``batch -> bool ndarray | None`` evaluator, or raise :class:`_NotVectorizable`."""
    if isinstance(expr, RangePredicate):
        field = expr.field
        interval = expr.interval

        def mask(batch: RecordBatch):
            array = batch.numeric_view(field)
            if array is None:
                return None
            low = array >= interval.low if interval.low_inclusive else array > interval.low
            high = array <= interval.high if interval.high_inclusive else array < interval.high
            return low & high

        return mask
    if isinstance(expr, Comparison):
        op = _NUMPY_COMPARATORS[expr.op]
        left = _vector_value(expr.left)
        right = _vector_value(expr.right)
        # A None value is NaN in the numeric view, so every comparison but
        # "!=" is already False on it (IEEE NaN compares unequal to all).
        # "!=" would answer True, and the float view cannot tell a genuine NaN
        # value (where the interpreter answers True) from a None-became-NaN
        # (where it must answer False), so it ANDs the per-column ``value is
        # not None`` validity views of its leaf fields, which keep genuine
        # NaNs valid.  Object-dtype (string) columns return a ``None`` numeric
        # view at runtime and take the per-row fallback.
        validity_left = _vector_validity(expr.left) if expr.op == "!=" else None
        validity_right = _vector_validity(expr.right) if expr.op == "!=" else None

        def mask(batch: RecordBatch):
            lhs = left(batch)
            rhs = right(batch)
            if lhs is None or rhs is None:
                return None
            result = op(lhs, rhs)
            if validity_left is not None:
                result = result & validity_left(batch)
            if validity_right is not None:
                result = result & validity_right(batch)
            if not isinstance(result, np.ndarray):
                # Two literals: broadcast the constant verdict.
                result = np.full(batch.row_count, bool(result))
            return result

        return mask
    if isinstance(expr, (And, Or)):
        children = [_vector_mask(child) for child in expr.children]
        combine = np.logical_and if isinstance(expr, And) else np.logical_or

        def mask(batch: RecordBatch):
            combined = None
            for child in children:
                child_mask = child(batch)
                if child_mask is None:
                    return None
                combined = child_mask if combined is None else combine(combined, child_mask)
            return combined

        return mask
    if isinstance(expr, Not):
        child = _vector_mask(expr.child)

        def mask(batch: RecordBatch):
            child_mask = child(batch)
            if child_mask is None:
                return None
            return ~child_mask

        return mask
    raise _NotVectorizable


def compile_batch_predicate(expr: Expression | None) -> Callable[[RecordBatch], np.ndarray]:
    """Compile a predicate into a ``batch -> bool ndarray`` mask evaluator.

    Numeric comparisons/ranges and their boolean combinations evaluate as
    NumPy mask expressions; anything else (or a batch whose columns turn out
    non-numeric) evaluates ``expr.evaluate`` per row over the batch.
    """
    if expr is None:
        return lambda batch: np.ones(batch.row_count, dtype=bool)
    try:
        vector = _vector_mask(expr)
    except _NotVectorizable:
        vector = None
    fields = sorted(expr.referenced_fields())

    def evaluate(batch: RecordBatch) -> np.ndarray:
        if vector is not None:
            mask = vector(batch)
            if mask is not None:
                return mask
        return np.array(_per_row(expr.evaluate, batch, fields), dtype=bool)

    return evaluate
