"""Proteus-style raw-data query engine substrate.

This subpackage implements the query engine that ReCache plugs into: a nested
data model (:mod:`repro.engine.types`), an expression language
(:mod:`repro.engine.expressions`), a logical query algebra
(:mod:`repro.engine.algebra`), pull-based physical operators
(:mod:`repro.engine.operators`), predicate and aggregate-input evaluation over
batches (:mod:`repro.engine.compiler`: NumPy masks, else
:meth:`~repro.engine.expressions.Expression.evaluate` per row), an optimizer
that injects materializers and rewrites plans against the cache
(:mod:`repro.engine.optimizer`), and a high-level
:class:`~repro.engine.session.QueryEngine` session object.

Only the leaf modules are imported here to keep import order free of cycles
(the cache core depends on the expression language, while the session depends
on the cache core); the top-level :mod:`repro` package re-exports the full
public API.
"""

from repro.engine.expressions import (
    AggregateSpec,
    And,
    Comparison,
    FieldRef,
    Literal,
    Not,
    Or,
    RangePredicate,
)
from repro.engine.types import (
    BOOL,
    FLOAT,
    INT,
    STRING,
    Field,
    ListType,
    RecordType,
)

__all__ = [
    "BOOL",
    "FLOAT",
    "INT",
    "STRING",
    "Field",
    "ListType",
    "RecordType",
    "AggregateSpec",
    "And",
    "Comparison",
    "FieldRef",
    "Literal",
    "Not",
    "Or",
    "RangePredicate",
]
