"""Query "code generation": specializing expressions into Python closures.

Proteus generates LLVM code specialized to each query and data format; the
equivalent lever available to a pure-Python engine is to generate Python source
for each predicate / projection / aggregation and ``compile`` it once per
query, so that the per-row work is a single call into specialized bytecode
rather than a tree walk over expression objects.  The generated code is also
what the materializer stitches into its cache-creation path, mirroring the
paper's description of cache code being generated just-in-time.

Two extra layers sit on top of the plain row compilers:

* **Closure caching** — compiled closures are memoized by their emitted
  Python source (an order-faithful structural fingerprint; the canonical
  signature would be unsafe because it sorts And/Or children and two
  conjunctions may rely on different short-circuit orders), so a workload
  that repeats structurally identical queries never re-``compile()`` the same
  predicate or aggregate accessor twice.
* **Batch compilation** — :func:`compile_batch_predicate` emits a NumPy mask
  evaluator for numeric comparisons/ranges and their conjunctions (``None``
  values become NaN, which fails every ordered comparison exactly like the
  interpreter's null semantics).  Expressions that cannot be vectorized —
  string comparisons, division (whose ``ZeroDivisionError`` semantics NumPy
  would silently change), non-numeric columns discovered at runtime — fall
  back to the compiled per-row closure applied over the batch.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

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

# ---------------------------------------------------------------------------
# Closure cache
# ---------------------------------------------------------------------------
#: compiled closures keyed by "<kind>:<emitted source>".  The emitted source —
#: not the canonical signature — is the cache key because signatures sort
#: And/Or children: two conjunctions with the same signature but different
#: child order must NOT share a closure, or one query's short-circuit order
#: (e.g. a zero-guard before a division) would silently replace the other's.
_CLOSURE_CACHE: dict[str, object] = {}
_CLOSURE_LOCK = threading.Lock()
_CLOSURE_CACHE_LIMIT = 4096


def _cached_closure(key: str, build: Callable[[], object]):
    with _CLOSURE_LOCK:
        cached = _CLOSURE_CACHE.get(key)
    if cached is not None:
        return cached
    value = build()
    with _CLOSURE_LOCK:
        if len(_CLOSURE_CACHE) >= _CLOSURE_CACHE_LIMIT:
            # A workload of unbounded distinct predicates must not leak; the
            # cache is an optimization, so dropping it wholesale is safe.
            _CLOSURE_CACHE.clear()
        _CLOSURE_CACHE[key] = value
    return value


def compiled_closure_cache_size() -> int:
    """Number of memoized compiled closures (introspection for tests)."""
    with _CLOSURE_LOCK:
        return len(_CLOSURE_CACHE)


def clear_compiled_closure_cache() -> None:
    with _CLOSURE_LOCK:
        _CLOSURE_CACHE.clear()


# ---------------------------------------------------------------------------
# Row compilers
# ---------------------------------------------------------------------------
def compile_predicate(expr: Expression | None) -> Callable[[dict], bool]:
    """Compile a boolean expression into a fast ``row -> bool`` closure."""
    if expr is None:
        return lambda row: True
    emitted = _emit(expr)

    def build():
        source = f"lambda row: bool({emitted})"
        return eval(compile(source, "<recache-predicate>", "eval"), {})  # noqa: S307

    return _cached_closure(f"pred:{emitted}", build)


def compile_value(expr: Expression) -> Callable[[dict], object]:
    """Compile a value expression into a ``row -> value`` closure."""
    emitted = _emit(expr)

    def build():
        source = f"lambda row: ({emitted})"
        return eval(compile(source, "<recache-expression>", "eval"), {})  # noqa: S307

    return _cached_closure(f"value:{emitted}", build)


class CompiledAggregate:
    """Running state for one aggregate, specialized to its function."""

    def __init__(self, spec: AggregateSpec) -> None:
        self.spec = spec
        self._value_of = compile_value(spec.expr)
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None

    def batch_values(self, batch: RecordBatch) -> list:
        """The aggregate's input values for every row of a batch.

        A plain field reference reads the column directly; compound
        expressions evaluate the compiled row closure over minimal row
        dictionaries restricted to the referenced fields.
        """
        expr = self.spec.expr
        if isinstance(expr, FieldRef):
            return batch.column(expr.path)
        fields = sorted(expr.referenced_fields())
        columns = [batch.column(name) for name in fields]
        value_of = self._value_of
        return [
            value_of({name: col[i] for name, col in zip(fields, columns)})
            for i in range(batch.row_count)
        ]

    def update_batch(self, batch: RecordBatch) -> None:
        """Fold a whole batch into the running state.

        Accumulation walks the column in row order, skipping ``None``, so the
        floating-point result is that of a plain left-to-right fold whatever
        the batch boundaries.
        """
        values = self.batch_values(batch)
        func = self.spec.func
        if func in ("sum", "avg"):
            count = 0
            total = self._sum
            for value in values:
                if value is None:
                    continue
                count += 1
                total += value
            self._count += count
            self._sum = total
        elif func == "count":
            self._count += sum(1 for value in values if value is not None)
        elif func == "min":
            best = self._min
            count = 0
            for value in values:
                if value is None:
                    continue
                count += 1
                best = value if best is None else min(best, value)
            self._min = best
            self._count += count
        else:  # max
            best = self._max
            count = 0
            for value in values:
                if value is None:
                    continue
                count += 1
                best = value if best is None else max(best, value)
            self._max = best
            self._count += count

    def result(self) -> object:
        func = self.spec.func
        if func == "count":
            return self._count
        if func == "sum":
            return self._sum
        if func == "avg":
            return self._sum / self._count if self._count else None
        if func == "min":
            return self._min
        return self._max


def compile_aggregates(specs: Sequence[AggregateSpec]) -> list[CompiledAggregate]:
    return [CompiledAggregate(spec) for spec in specs]


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

    This is exactly the guard set the row compiler emits (see :func:`_emit`):
    the interpreter guards a comparison operand through its *leaf fields*, so
    the vectorized mask ANDs the per-column validity views of those leaves.
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
        # Ordered comparisons against NaN are already False; equality needs an
        # explicit validity mask (None rows must never compare equal).  "!="
        # cannot use an isnan guard — the float view cannot distinguish a
        # genuine NaN value (where the interpreter answers True) from a
        # None-became-NaN (where it must answer False) — so it ANDs the
        # per-column ``value is not None`` validity views instead, which keep
        # genuine NaNs valid.  Object-dtype (string) columns still return a
        # ``None`` numeric view at runtime and take the per-row fallback.
        needs_nan_guard = expr.op == "=="
        guard_left = not isinstance(expr.left, Literal)
        guard_right = not isinstance(expr.right, Literal)
        validity_left = _vector_validity(expr.left) if expr.op == "!=" else None
        validity_right = _vector_validity(expr.right) if expr.op == "!=" else None

        def mask(batch: RecordBatch):
            lhs = left(batch)
            rhs = right(batch)
            if lhs is None or rhs is None:
                return None
            result = op(lhs, rhs)
            if needs_nan_guard:
                if guard_left and isinstance(lhs, np.ndarray):
                    result = result & ~np.isnan(lhs)
                if guard_right and isinstance(rhs, np.ndarray):
                    result = result & ~np.isnan(rhs)
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
    non-numeric) evaluates the compiled per-row closure over the batch.
    """
    if expr is None:
        return lambda batch: np.ones(batch.row_count, dtype=bool)
    # The emitted source is an order-faithful structural fingerprint (unlike
    # the signature, which sorts And/Or children); the vectorized evaluator is
    # built from the same structure, so it is a safe cache key for both parts.
    emitted = _emit(expr)

    def build():
        try:
            vector = _vector_mask(expr)
        except _NotVectorizable:
            vector = None
        row_predicate = compile_predicate(expr)
        fields = sorted(expr.referenced_fields())

        def evaluate(batch: RecordBatch) -> np.ndarray:
            if vector is not None:
                mask = vector(batch)
                if mask is not None:
                    return mask
            pairs = [(name, batch.column(name)) for name in fields]
            count = batch.row_count
            out = np.empty(count, dtype=bool)
            # One preallocated row dict, rebound in place per row: the
            # compiled closure only reads it synchronously, so reuse is safe
            # and saves a dict allocation per row.
            row = dict.fromkeys(fields)
            for i in range(count):
                for name, col in pairs:  # rowwise-fallback: non-vectorizable predicates interpret per row — the audited parity fallback
                    row[name] = col[i]
                out[i] = row_predicate(row)
            return out

        return evaluate

    return _cached_closure(f"batchpred:{emitted}", build)


# ---------------------------------------------------------------------------
# Expression -> Python source
# ---------------------------------------------------------------------------
def _emit(expr: Expression) -> str:
    if isinstance(expr, FieldRef):
        return f"row.get({expr.path!r})"
    if isinstance(expr, Literal):
        return repr(expr.value)
    if isinstance(expr, RangePredicate):
        value = f"row.get({expr.field!r})"
        low_op = "<=" if expr.interval.low_inclusive else "<"
        high_op = "<=" if expr.interval.high_inclusive else "<"
        return (
            f"({value} is not None and {expr.interval.low!r} {low_op} {value} "
            f"and {value} {high_op} {expr.interval.high!r})"
        )
    if isinstance(expr, Comparison):
        left, right = _emit(expr.left), _emit(expr.right)
        # Guard only the operands that can actually be None at runtime
        # (literals cannot), mirroring the interpreter's null semantics.  An
        # arithmetic operand is guarded through its *leaf fields*: evaluating
        # the whole operand inside the guard would already raise TypeError on
        # None, whereas the interpreter propagates None and compares False —
        # which is also what the NaN arithmetic of the batched pipeline does.
        guards: list[str] = []
        for operand, emitted in ((expr.left, left), (expr.right, right)):
            if isinstance(operand, Literal):
                continue
            if isinstance(operand, (FieldRef, Arithmetic)):
                for path in sorted(operand.referenced_fields()):
                    guard = f"row.get({path!r}) is not None"
                    if guard not in guards:
                        guards.append(guard)
            else:
                # Boolean-valued operands (predicates) never evaluate to None;
                # the cheap whole-expression guard keeps the old behaviour.
                guards.append(f"({emitted}) is not None")
        comparison = f"({left}) {expr.op} ({right})"
        if guards:
            return "(" + " and ".join(guards + [comparison]) + ")"
        return f"({comparison})"
    if isinstance(expr, And):
        return "(" + " and ".join(_emit(child) for child in expr.children) + ")"
    if isinstance(expr, Or):
        return "(" + " or ".join(_emit(child) for child in expr.children) + ")"
    if isinstance(expr, Not):
        return f"(not {_emit(expr.child)})"
    if isinstance(expr, Arithmetic):
        return f"(({_emit(expr.left)}) {expr.op} ({_emit(expr.right)}))"
    raise TypeError(f"cannot compile expression of type {type(expr).__name__}")
