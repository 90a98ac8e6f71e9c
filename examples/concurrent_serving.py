"""Concurrent serving: many clients, one shared cache.

Builds a TPC-H-style CSV file, wraps a :class:`repro.QueryEngine` in an
:class:`repro.EngineServer` thread pool, and drives it with zipfian-skewed
closed-loop clients — first with one worker thread, then with four — printing
the throughput and cache statistics of each serving window.

Run with::

    python examples/concurrent_serving.py
"""

from __future__ import annotations

import tempfile
import time

from repro import AggregateSpec, EngineServer, FieldRef, Query, QueryEngine, RangePredicate, ReCacheConfig
from repro.utils import format_bytes
from repro.workloads import TPCH_SCHEMAS, write_tpch_dataset
from repro.workloads.runner import ConcurrentWorkloadRunner


def build_query_pool(pool_size: int = 20) -> list[Query]:
    """Distinct range aggregations; pool order defines zipfian popularity."""
    return [
        Query.select_aggregate(
            "lineitem",
            RangePredicate("l_quantity", 1 + (index % 10) * 4, 12 + (index % 10) * 4),
            [
                AggregateSpec("sum", FieldRef("l_extendedprice")),
                AggregateSpec("count", FieldRef("l_orderkey")),
            ],
            label=f"q{index}",
        )
        for index in range(pool_size)
    ]


def main() -> None:
    data_dir = tempfile.mkdtemp(prefix="recache-serving-")
    print(f"Generating TPC-H style data under {data_dir} ...")
    csv_paths = write_tpch_dataset(data_dir, scale_factor=0.002, seed=42)

    pool = build_query_pool()
    # Each served request also "delivers" its result to the remote client;
    # worker threads overlap these waits, which is where the thread pool's
    # throughput win comes from on a cache-hit-heavy workload.
    def deliver(report) -> None:
        time.sleep(0.005)

    for workers in (1, 4):
        config = ReCacheConfig(max_workers=workers, cache_size_limit=16_000_000)
        engine = QueryEngine(config)
        engine.register_csv("lineitem", csv_paths["lineitem"], TPCH_SCHEMAS["lineitem"])

        # Warm the hot queries so the serving window is cache-hit-heavy.
        for query in pool:
            engine.execute(query)

        with EngineServer(engine, response_hook=deliver) as server:
            runner = ConcurrentWorkloadRunner(server, clients=4, seed=7)
            result = runner.run(pool, label=f"{workers}-worker", queries_per_client=30, zipf_s=1.1)

        stats = engine.cache_stats
        print(
            f"{workers} worker(s): {result.total_queries} queries in "
            f"{result.wall_time:.2f}s -> {result.queries_per_second:.0f} q/s | "
            f"hit rate {stats.hit_rate():.0%}, "
            f"{len(engine.recache.entries())} cached items, "
            f"{format_bytes(engine.recache.total_bytes)} resident"
        )


if __name__ == "__main__":
    main()
