"""Concurrent serving: many clients, one shared cache.

Builds a TPC-H-style CSV file, warms a :class:`repro.QueryEngine` on a pool of
range aggregations, wraps it in an :class:`repro.EngineServer` and drives it
with closed-loop client threads: each client draws a query from a Zipf
distribution over the pool, calls ``server.execute`` and waits for the reply
before sending its next request, until a fixed window closes.  The window runs
once with one worker thread and once with four, printing throughput, latency
percentiles and the cache hit rate of each.

Run with::

    PYTHONPATH=src python examples/concurrent_serving.py
"""

from __future__ import annotations

import random
import tempfile
import threading
import time

from repro import AggregateSpec, EngineServer, FieldRef, Query, QueryEngine, RangePredicate, ReCacheConfig
from repro.utils import format_bytes
from repro.utils.rng import ZipfianSampler
from repro.workloads import TPCH_SCHEMAS, write_tpch_dataset

CLIENTS = 4
WINDOW_SECONDS = 2.0


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


def serve_window(server: EngineServer, pool: list[Query], seed: int) -> list[float]:
    """Run ``CLIENTS`` closed-loop clients for one window; return sorted latencies."""
    sampler = ZipfianSampler(len(pool), s=1.1)
    latencies: list[list[float]] = [[] for _ in range(CLIENTS)]
    stop_at = time.perf_counter() + WINDOW_SECONDS

    def client(index: int) -> None:
        rng = random.Random(seed * 1000 + index)
        while time.perf_counter() < stop_at:
            query = pool[sampler.sample(rng)]
            started = time.perf_counter()
            server.execute(query, timeout=60.0)
            latencies[index].append(time.perf_counter() - started)

    threads = [threading.Thread(target=client, args=(index,)) for index in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted(latency for per_client in latencies for latency in per_client)


def main() -> None:
    data_dir = tempfile.mkdtemp(prefix="recache-serving-")
    print(f"Generating TPC-H style data under {data_dir} ...")
    csv_paths = write_tpch_dataset(data_dir, scale_factor=0.002, seed=42)
    pool = build_query_pool()

    for workers in (1, 4):
        engine = QueryEngine(ReCacheConfig(cache_size_limit=16_000_000))
        engine.register_csv("lineitem", csv_paths["lineitem"], TPCH_SCHEMAS["lineitem"])
        # Warm the pool so the serving window is cache-hit-heavy.
        for query in pool:
            engine.execute(query)

        with EngineServer(engine, max_workers=workers) as server:
            latencies = serve_window(server, pool, seed=7)

        p50 = latencies[len(latencies) // 2] * 1e3
        p95 = latencies[int(len(latencies) * 0.95)] * 1e3
        print(
            f"{workers} worker(s), {CLIENTS} clients: {len(latencies)} queries in "
            f"{WINDOW_SECONDS:.0f}s -> {len(latencies) / WINDOW_SECONDS:.0f} q/s | "
            f"p50 {p50:.2f} ms, p95 {p95:.2f} ms | "
            f"hit rate {engine.cache_stats.hit_rate():.0%}, "
            f"{len(engine.recache.entries())} cached items, "
            f"{format_bytes(engine.recache.total_bytes)} resident"
        )


if __name__ == "__main__":
    main()
