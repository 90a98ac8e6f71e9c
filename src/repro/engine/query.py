"""Declarative query specifications accepted by the query engine.

The paper's workloads are select-project-aggregate (SPA) and select-project-
join (SPJ) queries; :class:`Query` captures exactly that shape: one or more
tables, a conjunctive (range) predicate per table, equi-join clauses between
tables, and a list of aggregates over the joined result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import validate_execution_mode
from repro.engine.expressions import AggregateSpec, Expression


@dataclass
class TableRef:
    """One data source participating in a query, with its local predicate."""

    source: str
    predicate: Expression | None = None

    def signature(self) -> str:
        pred = self.predicate.signature() if self.predicate is not None else "true"
        return f"{self.source}[{pred}]"


@dataclass
class JoinSpec:
    """An equi-join clause between two of the query's tables."""

    left_source: str
    left_key: str
    right_source: str
    right_key: str

    def signature(self) -> str:
        return f"{self.left_source}.{self.left_key}={self.right_source}.{self.right_key}"


@dataclass
class Query:
    """A select-project-join/aggregate query over registered data sources."""

    tables: list[TableRef]
    aggregates: list[AggregateSpec] = field(default_factory=list)
    joins: list[JoinSpec] = field(default_factory=list)
    group_by: list[str] = field(default_factory=list)
    #: optional label used by workload generators and reports
    label: str = ""
    #: how ``QueryReport.results`` is handed back: ``"rows"`` (a list of row
    #: dictionaries) or ``"columnar"`` (the
    #: :class:`~repro.engine.types.ColumnarResult` the rows are built from, no
    #: dictionary per row).  Deliberately NOT part of :meth:`signature`: it
    #: shapes only the representation, so the serving tier coalesces identical
    #: queries across formats and converts each duplicate's copy.
    result_format: str = "rows"
    #: per-query deadline in seconds (wall clock from submission/execution
    #: start), or ``None`` to follow ``ReCacheConfig.default_deadline``.
    #: Like the field above, deliberately NOT part of :meth:`signature`:
    #: the deadline shapes *when* a result must arrive, not *what* it is.
    #: The serving tier coalesces identical queries only when their deadlines
    #: are equal, so no request runs under another's deadline.
    deadline: float | None = None
    #: per-query execution strategy override: ``"threads"``, ``"processes"``,
    #: or ``None`` to follow ``ReCacheConfig.execution_mode``.  Like the two
    #: knobs above, deliberately NOT part of :meth:`signature`: the mode
    #: decides *where* the scan runs, never what it returns (the process
    #: path is parity-tested against the thread path), so coalescing across
    #: modes stays safe.
    execution_mode: str | None = None

    def __post_init__(self) -> None:
        if self.result_format not in ("rows", "columnar"):
            raise ValueError(
                f"unknown result format {self.result_format!r}; expected 'rows' or 'columnar'"
            )
        validate_execution_mode(self.execution_mode, allow_none=True)
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive or None")
        if not self.tables:
            raise ValueError("a query needs at least one table")
        sources = {t.source for t in self.tables}
        if len(sources) != len(self.tables):
            raise ValueError("each source may appear at most once per query")
        for join in self.joins:
            if join.left_source not in sources or join.right_source not in sources:
                raise ValueError(f"join {join.signature()} references unknown sources")

    def table(self, source: str) -> TableRef:
        for table in self.tables:
            if table.source == source:
                return table
        raise KeyError(f"query has no table {source!r}")

    def sources(self) -> list[str]:
        return [t.source for t in self.tables]

    def signature(self) -> str:
        tables = ",".join(t.signature() for t in self.tables)
        joins = ",".join(j.signature() for j in self.joins)
        aggs = ",".join(a.signature() for a in self.aggregates)
        return f"q({tables};{joins};{aggs};{','.join(self.group_by)})"

    @classmethod
    def select_aggregate(
        cls,
        source: str,
        predicate: Expression | None,
        aggregates: list[AggregateSpec],
        label: str = "",
    ) -> "Query":
        """Convenience constructor for single-table SPA queries."""
        return cls(tables=[TableRef(source, predicate)], aggregates=aggregates, label=label)
