"""Workload execution harness.

Runs a sequence of queries against a :class:`~repro.engine.session.QueryEngine`
and collects the per-query and cumulative measurements every figure of the
evaluation is built from (execution time, caching overhead, hit counts, layout
switches).  It also knows how to feed the clairvoyant eviction policies their
future access schedule, and how to pre-populate caches when an experiment wants
to isolate cache *performance* from cache *construction* (Figures 1 and 9).

:class:`ConcurrentWorkloadRunner` is the multi-client variant: N closed-loop
clients, each with its own deterministic RNG stream, draw queries from a shared
pool with zipfian rank skew and issue them through an
:class:`~repro.engine.server.EngineServer` against one shared cache — either
one request at a time (:meth:`~ConcurrentWorkloadRunner.run`) or a batch per
round through the server's coalescing ``submit_batch`` path
(:meth:`~ConcurrentWorkloadRunner.run_batched`).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.core.cache_entry import CacheKey
from repro.core.policies import OfflinePolicy
from repro.engine.executor import QueryReport
from repro.engine.query import Query
from repro.engine.server import EngineServer, merge_reports
from repro.engine.session import QueryEngine
from repro.utils.rng import ZipfianSampler, make_rng, spawn


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
    def execution_times(self) -> list[float]:
        return [entry["total_time"] for entry in self.per_query]

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

    def warm_caches(self, queries: list[Query]) -> None:
        """Execute queries once to populate caches, discarding the measurements.

        Figures 1 and 9 pre-populate the caches so the measured curves isolate
        cache-scan performance from cache construction.
        """
        for query in queries:
            self.engine.execute(query)

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
    """The per-query measurement row shared by both workload runners."""
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
        "queue_wait_time": report.queue_wait_time,
        "queue_depth": report.queue_depth,
        "coalesced": report.coalesced,
        "coalesced_wait_time": report.coalesced_wait_time,
        "offloaded": report.offloaded,
        "retries": report.retries,
        "degraded_scans": report.degraded_scans,
        "quarantined_entries": report.quarantined_entries,
        "shed": report.shed,
        "deadline_exceeded": report.deadline_exceeded,
    }


# ---------------------------------------------------------------------------
# Multi-client driver
# ---------------------------------------------------------------------------
@dataclass
class ConcurrentWorkloadResult:
    """Measurements of one multi-client serving window."""

    label: str
    client_count: int
    wall_time: float
    per_client: list[WorkloadResult] = field(default_factory=list)
    #: merged per-query report counters across all clients
    aggregate: QueryReport | None = None

    @property
    def total_queries(self) -> int:
        return sum(result.query_count for result in self.per_client)

    @property
    def queries_per_second(self) -> float:
        return self.total_queries / self.wall_time if self.wall_time > 0 else 0.0

    @property
    def cache_hits(self) -> int:
        return sum(result.cache_hits for result in self.per_client)

    def summary(self) -> dict:
        summary = {
            "label": self.label,
            "clients": self.client_count,
            "queries": self.total_queries,
            "wall_time": self.wall_time,
            "queries_per_second": self.queries_per_second,
            "cache_hits": self.cache_hits,
        }
        if self.aggregate is not None:
            summary["coalesced"] = self.aggregate.coalesced
            summary["queue_wait_time"] = self.aggregate.queue_wait_time
            summary["coalesced_wait_time"] = self.aggregate.coalesced_wait_time
            summary["offloaded"] = self.aggregate.offloaded
            # Deepest backlog observed *at enqueue time* — the true peak
            # (which includes each batch's own size) is the server's
            # ``peak_queue_depth``.
            summary["max_enqueue_depth"] = self.aggregate.queue_depth
        return summary


class ConcurrentWorkloadRunner:
    """Drives N closed-loop clients against an :class:`EngineServer`.

    Each client owns an independent RNG stream derived from ``seed`` and the
    client index, so a run is reproducible for a fixed (seed, clients,
    queries_per_client) regardless of thread interleaving.  Clients draw from
    the shared query pool with zipfian rank skew: the pool's order defines
    popularity, so the head of the pool becomes the hot working set — the
    cache-hit-heavy pattern a serving cache is designed for.  ``zipf_s=0``
    degenerates to uniform draws.

    ``think_time`` inserts a per-query client-side pause (models the network
    round-trip / render time of a remote client between requests).

    Every wait in the driver is bounded by ``request_timeout`` (seconds):
    the server's containment guarantees every future resolves, so an elapsed
    timeout means a stuck worker and surfaces as a ``TimeoutError`` instead
    of a silent hang of the whole run.
    """

    def __init__(
        self,
        server: EngineServer,
        clients: int = 4,
        seed: int = 33,
        request_timeout: float = 120.0,
    ) -> None:
        if clients < 1:
            raise ValueError("clients must be >= 1")
        if request_timeout <= 0:
            raise ValueError("request_timeout must be > 0")
        self.server = server
        self.clients = clients
        self.seed = seed
        self.request_timeout = request_timeout

    def run(
        self,
        pool: list[Query],
        label: str = "concurrent",
        queries_per_client: int | None = None,
        zipf_s: float = 1.1,
        think_time: float = 0.0,
    ) -> ConcurrentWorkloadResult:
        if not pool:
            raise ValueError("query pool must not be empty")
        per_client = queries_per_client or max(1, len(pool) // self.clients)
        sampler = ZipfianSampler(len(pool), zipf_s)
        base_rng = make_rng(self.seed)
        client_rngs = [spawn(base_rng, f"client-{index}") for index in range(self.clients)]

        def run_client(index: int) -> tuple[WorkloadResult, list[QueryReport]]:
            rng = client_rngs[index]
            result = WorkloadResult(label=f"{label}-client{index}")
            reports: list[QueryReport] = []
            for step in range(per_client):
                query = pool[sampler.sample(rng)]
                report = self.server.execute(query, timeout=self.request_timeout)
                result.per_query.append(_measurement(step, query, report))
                reports.append(report)
                if think_time > 0.0:
                    time.sleep(think_time)
            return result, reports

        return self._drive(run_client, label, self._wait_bound(per_client, think_time))

    def run_batched(
        self,
        pool: list[Query],
        label: str = "batched",
        queries_per_client: int | None = None,
        batch_size: int = 16,
        zipf_s: float = 1.1,
        think_time: float = 0.0,
    ) -> ConcurrentWorkloadResult:
        """The batched-submission variant of :meth:`run`.

        Each client draws ``batch_size`` queries per round from the same
        zipfian stream and submits them together via
        :meth:`~repro.engine.server.EngineServer.submit_batch`, waiting for
        the whole round before drawing the next.  A fixed (seed, clients,
        queries_per_client) draws exactly the same query sequence as
        :meth:`run`, so the two modes are directly comparable — the batched
        path just lets the server coalesce duplicate draws and share scans
        across overlapping ones.
        """
        if not pool:
            raise ValueError("query pool must not be empty")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        per_client = queries_per_client or max(1, len(pool) // self.clients)
        sampler = ZipfianSampler(len(pool), zipf_s)
        base_rng = make_rng(self.seed)
        client_rngs = [spawn(base_rng, f"client-{index}") for index in range(self.clients)]

        def run_client(index: int) -> tuple[WorkloadResult, list[QueryReport]]:
            rng = client_rngs[index]
            result = WorkloadResult(label=f"{label}-client{index}")
            reports: list[QueryReport] = []
            step = 0
            while step < per_client:
                round_size = min(batch_size, per_client - step)
                batch = [pool[sampler.sample(rng)] for _ in range(round_size)]
                round_reports = self.server.serve_all(batch, timeout=self.request_timeout)
                for offset, report in enumerate(round_reports):
                    result.per_query.append(_measurement(step + offset, batch[offset], report))
                    reports.append(report)
                step += round_size
                if think_time > 0.0:
                    time.sleep(think_time)
            return result, reports

        return self._drive(run_client, label, self._wait_bound(per_client, think_time))

    def _wait_bound(self, per_client: int, think_time: float) -> float:
        """Upper bound on one client's loop: every request is individually
        bounded by ``request_timeout``, plus think time and scheduling slack."""
        return per_client * (self.request_timeout + think_time) + 60.0

    def _drive(self, run_client, label: str, wait_bound: float) -> ConcurrentWorkloadResult:
        """Run one closed-loop client function per client thread and merge."""
        started = time.perf_counter()
        with ThreadPoolExecutor(
            max_workers=self.clients, thread_name_prefix="recache-client"
        ) as pool_executor:
            futures = [pool_executor.submit(run_client, index) for index in range(self.clients)]
            outcomes = [future.result(timeout=wait_bound) for future in futures]
        wall_time = time.perf_counter() - started

        per_client_results = [result for result, _ in outcomes]
        aggregate = merge_reports(
            (report for _, reports in outcomes for report in reports), label=label
        )
        return ConcurrentWorkloadResult(
            label=label,
            client_count=self.clients,
            wall_time=wall_time,
            per_client=per_client_results,
            aggregate=aggregate,
        )
