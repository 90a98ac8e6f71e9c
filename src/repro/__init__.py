"""ReCache: reactive caching for fast analytics over heterogeneous raw data.

A faithful, pure-Python reproduction of the system described in

    Tahir Azim, Manos Karpathiotakis and Anastasia Ailamaki.
    "ReCache: Reactive Caching for Fast Analytics over Heterogeneous Data."
    PVLDB 11(3), 2017.

The public API is re-exported here:

* :class:`~repro.engine.session.QueryEngine` — register raw CSV/JSON files and
  execute select-project-join/aggregate queries with reactive caching.
* :class:`~repro.engine.query.Query`, :class:`~repro.engine.query.TableRef`,
  :class:`~repro.engine.query.JoinSpec` — declarative query specifications.
* expression constructors (:class:`~repro.engine.expressions.RangePredicate`,
  :class:`~repro.engine.expressions.AggregateSpec`, ...).
* :class:`~repro.core.config.ReCacheConfig` and
  :class:`~repro.core.cache_manager.ReCache` — the cache manager itself, usable
  standalone.
"""

from repro.core.cache_manager import ReCache
from repro.core.config import ReCacheConfig
from repro.engine.batch import RecordBatch
from repro.engine.executor import QueryReport
from repro.engine.server import EngineServer
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
from repro.engine.query import JoinSpec, Query, TableRef
from repro.engine.session import QueryEngine
from repro.engine.types import (
    BOOL,
    FLOAT,
    INT,
    STRING,
    ColumnarResult,
    Field,
    ListType,
    RecordType,
)

__version__ = "1.0.0"

__all__ = [
    "ReCache",
    "ReCacheConfig",
    "QueryEngine",
    "EngineServer",
    "QueryReport",
    "RecordBatch",
    "ColumnarResult",
    "Query",
    "TableRef",
    "JoinSpec",
    "AggregateSpec",
    "And",
    "Comparison",
    "FieldRef",
    "Literal",
    "Not",
    "Or",
    "RangePredicate",
    "BOOL",
    "FLOAT",
    "INT",
    "STRING",
    "Field",
    "ListType",
    "RecordType",
    "__version__",
]
