"""Plan construction and cache-aware rewriting.

The optimizer turns a declarative :class:`~repro.engine.query.Query` into a
logical plan and, with ReCache's help, rewrites it (Section 3.2-3.3):

* every select operator over a raw source gets a *materializer* parent so that
  its output can be cached (Figure 3a),
* when ReCache already holds an exactly matching cache, the select-over-scan
  subtree is replaced with a scan over the cache (Figure 3b),
* when a *subsuming* cache exists (its range predicate covers the query's),
  the raw scan is replaced with a cache scan and the select is kept on top as
  a residual filter (Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.cache_manager import ReCache
from repro.core.sharded_cache import ShardedReCache
from repro.engine.algebra import (
    AggregateNode,
    CacheScanNode,
    JoinNode,
    MaterializeNode,
    PlanNode,
    ScanNode,
    SelectNode,
)
from repro.engine.expressions import referenced_fields
from repro.engine.query import Query
from repro.formats.datafile import DataSourceCatalog


@dataclass
class PlanInfo:
    """Book-keeping produced while planning one query."""

    plan: PlanNode
    #: per-source subplan feeding the join/aggregate stage
    table_plans: dict[str, PlanNode] = field(default_factory=dict)
    #: per-source fields that must be available for this query
    table_fields: dict[str, list[str]] = field(default_factory=dict)
    exact_hits: int = 0
    subsumption_hits: int = 0
    misses: int = 0


def required_fields(query: Query, catalog: DataSourceCatalog, source: str) -> list[str]:
    """The attribute paths of ``source`` that the query touches.

    Includes the source's predicate fields, its join keys, and whichever
    aggregate / group-by fields belong to the source's schema.  The result is
    what the materializer caches and what a cache must provide to be reusable.
    A query that names no field of the source at all (a bare scan) reads every
    leaf — an empty list used to reach the scans, which answered with all
    fields (cold CSV) or with empty rows (JSON, any cache hit).
    """
    table = query.table(source)
    schema_paths = set(catalog.get(source).flattened_schema.field_names())
    fields: set[str] = set()
    if table.predicate is not None:
        fields |= table.predicate.referenced_fields()
    for join in query.joins:
        if join.left_source == source:
            fields.add(join.left_key)
        if join.right_source == source:
            fields.add(join.right_key)
    for path in referenced_fields(query.aggregates):
        if path in schema_paths:
            fields.add(path)
    for path in query.group_by:
        if path in schema_paths:
            fields.add(path)
    unknown = fields - schema_paths
    if unknown:
        raise KeyError(f"query references unknown fields of {source!r}: {sorted(unknown)}")
    return sorted(fields or schema_paths)


def build_plan(
    query: Query,
    catalog: DataSourceCatalog,
    recache: ReCache | ShardedReCache | None,
    breaker=None,
) -> PlanInfo:
    """Build the cache-aware logical plan for ``query``.

    ``breaker`` is an optional
    :class:`~repro.core.circuit_breaker.SourceCircuitBreaker`: tables whose
    source breaker is open are planned as plain raw scans — no cache lookup
    and no materializer — so a repeatedly faulting source stops paying
    admission overhead (and stops poisoning the cache) until its cooldown
    elapses.
    """
    info = PlanInfo(plan=ScanNode(source="<placeholder>"))

    for table in query.tables:
        fields = required_fields(query, catalog, table.source)
        info.table_fields[table.source] = fields
        if breaker is not None and breaker.is_open(table.source):
            node = SelectNode(
                child=ScanNode(source=table.source, fields=fields),
                predicate=table.predicate,
            )
        else:
            node = _plan_table(table.source, table.predicate, fields, recache, info)
        info.table_plans[table.source] = node

    plan = _join_tables(query, info)
    if query.aggregates or query.group_by:
        plan = AggregateNode(child=plan, aggregates=list(query.aggregates), group_by=list(query.group_by))
    info.plan = plan
    return info


def _plan_table(
    source: str,
    predicate,
    fields: list[str],
    recache: ReCache | ShardedReCache | None,
    info: PlanInfo,
) -> PlanNode:
    scan = ScanNode(source=source, fields=fields)
    if recache is None or not recache.config.caching_enabled:
        return SelectNode(child=scan, predicate=predicate)

    match = recache.lookup(source, predicate, fields)
    if match is not None:
        if match.exact:
            info.exact_hits += 1
        else:
            info.subsumption_hits += 1
        return CacheScanNode(
            entry=match.entry,
            fields=fields,
            residual_predicate=predicate,
            exact=match.exact,
            lookup_time=match.lookup_time,
        )

    info.misses += 1
    select = SelectNode(child=scan, predicate=predicate)
    return MaterializeNode(child=select, source=source, predicate=predicate, fields=fields)


def _join_tables(query: Query, info: PlanInfo) -> PlanNode:
    """Chain the per-table plans into a left-deep join tree."""
    if len(query.tables) == 1:
        return info.table_plans[query.tables[0].source]

    joined_sources = {query.tables[0].source}
    plan = info.table_plans[query.tables[0].source]
    pending = list(query.joins)

    while pending:
        progressed = False
        for join in list(pending):
            if join.left_source in joined_sources and join.right_source not in joined_sources:
                plan = JoinNode(
                    left=plan,
                    right=info.table_plans[join.right_source],
                    left_key=join.left_key,
                    right_key=join.right_key,
                )
                joined_sources.add(join.right_source)
            elif join.right_source in joined_sources and join.left_source not in joined_sources:
                plan = JoinNode(
                    left=plan,
                    right=info.table_plans[join.left_source],
                    left_key=join.right_key,
                    right_key=join.left_key,
                )
                joined_sources.add(join.left_source)
            elif join.left_source in joined_sources and join.right_source in joined_sources:
                pass  # both sides already joined; the clause is redundant
            else:
                continue
            pending.remove(join)
            progressed = True
        if not progressed:
            raise ValueError("join graph is not connected to the first table")

    missing = [t.source for t in query.tables if t.source not in joined_sources]
    if missing:
        raise ValueError(f"tables {missing} are not connected by any join clause")
    return plan
