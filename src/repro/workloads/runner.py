"""Workload execution harness.

Runs a sequence of queries against a :class:`~repro.engine.session.QueryEngine`
and collects the per-query and cumulative measurements every figure of the
evaluation is built from (execution time, caching overhead, hit counts, layout
switches).  It also feeds the clairvoyant eviction policies their future
access schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.cache_entry import CacheKey
from repro.core.policies import OfflinePolicy
from repro.engine.executor import QueryReport
from repro.engine.query import Query
from repro.engine.session import QueryEngine


@dataclass
class WorkloadResult:
    """Per-query and aggregate measurements of one workload run."""

    label: str
    per_query: list[dict] = field(default_factory=list)

    @property
    def query_count(self) -> int:
        return len(self.per_query)

    @property
    def total_time(self) -> float:
        return sum(entry["total_time"] for entry in self.per_query)

    @property
    def cumulative_times(self) -> list[float]:
        """Cumulative execution time after each query (the y-axis of Figs 10/13/15)."""
        running = 0.0
        series = []
        for entry in self.per_query:
            running += entry["total_time"]
            series.append(running)
        return series

    @property
    def caching_overheads(self) -> list[float]:
        return [entry["caching_overhead"] for entry in self.per_query]

    @property
    def cache_hits(self) -> int:
        return sum(entry["exact_hits"] + entry["subsumption_hits"] for entry in self.per_query)

    def mean_execution_time(self) -> float:
        return self.total_time / self.query_count if self.per_query else 0.0

    def mean_caching_overhead(self) -> float:
        if not self.per_query:
            return 0.0
        return sum(self.caching_overheads) / self.query_count

    def tail_total_time(self, last_n: int) -> float:
        """Total time of the last ``last_n`` queries (Figure 15's second half)."""
        return sum(entry["total_time"] for entry in self.per_query[-last_n:])

    def summary(self) -> dict:
        return {
            "label": self.label,
            "queries": self.query_count,
            "total_time": self.total_time,
            "mean_time": self.mean_execution_time(),
            "mean_caching_overhead": self.mean_caching_overhead(),
            "cache_hits": self.cache_hits,
        }


class WorkloadRunner:
    """Executes query workloads and records their measurements."""

    def __init__(self, engine: QueryEngine) -> None:
        self.engine = engine

    def run(self, queries: list[Query], label: str = "workload") -> WorkloadResult:
        """Execute the queries in order and collect per-query measurements."""
        self._prepare_offline_policy(queries)
        result = WorkloadResult(label=label)
        for index, query in enumerate(queries):
            report = self.engine.execute(query)
            result.per_query.append(_measurement(index, query, report))
        return result

    # ------------------------------------------------------------------
    def _prepare_offline_policy(self, queries: list[Query]) -> None:
        """Give a clairvoyant policy the access schedule of the workload."""
        policy = self.engine.recache.policy
        if not isinstance(policy, OfflinePolicy):
            return
        base_sequence = self.engine.recache.sequence
        accesses: dict[str, list[int]] = {}
        for offset, query in enumerate(queries):
            sequence = base_sequence + offset + 1
            for table in query.tables:
                key = CacheKey.for_select(table.source, table.predicate).as_string()
                accesses.setdefault(key, []).append(sequence)
        policy.set_future_accesses(accesses)


def _measurement(index: int, query: Query, report: QueryReport) -> dict:
    """The per-query measurement row of one executed query."""
    return {
        "index": index,
        "label": query.label,
        "total_time": report.total_time,
        "operator_time": report.operator_time,
        "caching_time": report.caching_time,
        "cache_scan_time": report.cache_scan_time,
        "lookup_time": report.lookup_time,
        "caching_overhead": report.caching_overhead,
        "exact_hits": report.exact_hits,
        "subsumption_hits": report.subsumption_hits,
        "misses": report.misses,
        "layout_switches": report.layout_switches,
        "rows_returned": report.rows_returned,
        "offloaded": report.offloaded,
        "retries": report.retries,
        "degraded_scans": report.degraded_scans,
        "quarantined_entries": report.quarantined_entries,
        "deadline_exceeded": report.deadline_exceeded,
    }

