"""Measuring one workload: set-ups, timed loops, metrics.  Runs in the workload's own process."""

from __future__ import annotations

import copy
import math
import os
import resource
import shutil
import statistics
import tempfile
import threading
import time
import traceback
from collections import defaultdict
from pathlib import Path

from e2e_tracing import Tracer
from e2e_workloads import (
    HOT_CLASSES,
    WORKLOADS,
    Workload,
    oracle_results,
    same_result,
    warm_engine,
    zipf_ranks,
)
from repro import EngineServer

OUT = Path(__file__).resolve().parent / "out"

#: a run sets up this many times, each from its own sub-seed: ``setup_s`` is the
#: median, and cold workloads rotate their repetitions through the set-ups
SETUP_REPEATS = 3
#: seconds one ``EngineServer.execute`` may take before it counts as failed
REQUEST_TIMEOUT = 30.0
#: closed-loop client threads, and server workers, of the served workload
CLIENTS = os.cpu_count() or 1


class Tally:
    """Outcomes of timed queries; one per client thread, merged afterwards."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.by_class: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.errors: list[str] = []

    @property
    def failed(self) -> int:
        return self.attempted - len(self.latencies)

    def merge(self, other: "Tally") -> None:
        self.latencies.extend(other.latencies)
        for name, values in other.by_class.items():
            self.by_class[name].extend(values)
        self.attempted += other.attempted
        self.errors.extend(other.errors)

    def timed(self, execute, query, expected, query_class: str) -> None:
        """Run one query, check its rows against the oracle, keep its latency.

        Typed engine errors and request timeouts are outcomes to count, not
        reasons to stop measuring.
        """
        self.attempted += 1
        started = time.perf_counter()
        try:
            report = execute(query)
        except Exception:
            self.errors.append(traceback.format_exc(limit=3))
            return
        latency = time.perf_counter() - started
        if not same_result(report.results, expected):
            self.errors.append(f"{query.label}: rows differ from the cache-off oracle")
            return
        self.latencies.append(latency)
        if query_class:
            self.by_class[query_class].append(latency)


class Segment:
    """One measured stretch: its repetitions and the queries timed in them."""

    def __init__(self, clients: int = 1) -> None:
        self.tally = Tally()
        self.clients = clients
        #: per repetition: (set-up index, wall seconds summed over clients, correct queries)
        self.repetitions: list[tuple[int, float, int]] = []
        #: the cache's size when the last repetition ended
        self.cached_mb = 0.0

    @property
    def client_seconds(self) -> float:
        return sum(wall for _, wall, _ in self.repetitions)

    @property
    def correct(self) -> int:
        return sum(correct for _, _, correct in self.repetitions)

    def queries_per_s(self) -> float:
        """Correct queries per elapsed second: the median over each set-up's
        repetitions, averaged over the set-ups (see ``measure_cold``)."""
        rates: dict[int, list[float]] = defaultdict(list)
        for setup, wall, correct in self.repetitions:
            rates[setup].append(correct * self.clients / wall)
        return statistics.fmean(statistics.median(values) for values in rates.values())


class Setup:
    """One set-up of a workload: files, queries, oracle rows, warm cache if hot."""

    def __init__(self, workload: Workload, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.config = workload.config(smoke)
        self.directory = Path(tempfile.mkdtemp(prefix=f"data-{workload.name}-", dir=OUT))
        self.inputs = workload.build(self.directory, seed, smoke)
        self.expected = oracle_results(self.inputs)
        self.engine = None
        if workload.kind != "cold":
            self.engine = warm_engine(self.inputs, self.config)

    def cases(self):
        return zip(self.inputs.queries, self.expected, self.inputs.classes)

    def close(self) -> None:
        shutil.rmtree(self.directory)


def measure_cold(setups: list[Setup], seconds: float) -> Segment:
    """Fresh-engine repetitions of the whole query sequence until time is up.

    Which layout an entry gets, and whether it is admitted eagerly, are
    decided from measured costs, so one dataset can sit on either side of a
    threshold and run some percent faster or slower than the next.  The
    repetitions therefore rotate through the run's set-ups, each from its own
    sub-seed and each used equally often, and throughput averages over them.
    """
    segment = Segment()
    tally = segment.tally
    began = time.perf_counter()
    done = 0
    while done < len(setups) or done % len(setups) or time.perf_counter() - began < seconds:
        index = done % len(setups)
        setup = setups[index]
        engine = setup.inputs.engine(setup.config)
        before = len(tally.latencies)
        started = time.perf_counter()
        for query, rows, query_class in setup.cases():
            tally.timed(engine.execute, query, rows, query_class)
        wall = time.perf_counter() - started
        segment.repetitions.append((index, wall, len(tally.latencies) - before))
        segment.cached_mb = engine.cached_bytes() / 1e6
        done += 1
    return segment


def measure_hot_direct(setup: Setup, seconds: float) -> Segment:
    """One caller, round-robin over the query classes for a fixed window."""
    segment = Segment()
    execute = setup.engine.execute
    started = time.perf_counter()
    deadline = started + seconds
    while time.perf_counter() < deadline:
        for query, rows, query_class in setup.cases():
            segment.tally.timed(execute, query, rows, query_class)
    wall = time.perf_counter() - started
    segment.repetitions.append((0, wall, len(segment.tally.latencies)))
    segment.cached_mb = setup.engine.cached_bytes() / 1e6
    return segment


def measure_hot_served(setup: Setup, server, seconds: float) -> Segment:
    """Closed loop: each client thread waits for its reply before its next request."""
    inputs, expected = setup.inputs, setup.expected
    tallies = [Tally() for _ in range(CLIENTS)]
    walls = [0.0] * CLIENTS
    barrier = threading.Barrier(CLIENTS)

    def execute(query):
        return server.execute(query, REQUEST_TIMEOUT)

    def client(index: int) -> None:
        ranks = zipf_ranks(setup.seed, index)
        tally = tallies[index]
        barrier.wait()
        started = time.perf_counter()
        deadline = started + seconds
        position = 0
        while time.perf_counter() < deadline:
            rank = ranks[position % len(ranks)]
            position += 1
            # A copy per request: the tracer links a request's client and
            # worker spans by the identity of the query object they share.
            query = copy.copy(inputs.queries[rank])
            tally.timed(execute, query, expected[rank], inputs.classes[rank])
        walls[index] = time.perf_counter() - started

    threads = [threading.Thread(target=client, args=(index,)) for index in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    segment = Segment(clients=CLIENTS)
    for tally in tallies:
        segment.tally.merge(tally)
    segment.repetitions.append((0, sum(walls), len(segment.tally.latencies)))
    segment.cached_mb = setup.engine.cached_bytes() / 1e6
    return segment


def percentile(ascending: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    return ascending[max(0, math.ceil(share * len(ascending)) - 1)]


def run_workload(
    spec: dict, name: str, seed: int, seconds: float, trace: bool, smoke: bool, process_started: float
) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    workload = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    imported = time.perf_counter()
    setups: list[Setup] = []
    setup_seconds: list[float] = []
    server = tracer = traced = None
    try:
        for index in range(SETUP_REPEATS):
            started = time.perf_counter()
            setups.append(Setup(workload, seed * SETUP_REPEATS + index, smoke))
            setup_seconds.append(time.perf_counter() - started)
        # child start -> first timed query: interpreter and imports, paid once, plus a set-up
        setup_s = (imported - process_started) + statistics.median(setup_seconds)

        if workload.kind == "hot_served":
            server = EngineServer(setups[-1].engine, max_workers=CLIENTS)

        def measure(length: float) -> Segment:
            if workload.kind == "cold":
                return measure_cold(setups, length)
            if workload.kind == "hot_direct":
                return measure_hot_direct(setups[-1], length)
            return measure_hot_served(setups[-1], server, length)

        if workload.kind == "cold":
            measure_cold(setups[:1], 0.0)  # discarded: first touches of the code paths
        if not trace:
            plain = measure(seconds)
        else:
            plain = measure(seconds / 3)
            tracer = Tracer()
            tracer.install()
            traced = measure(2 * seconds / 3)
        coalesced = server.coalesced_served if server is not None else 0
    finally:
        if tracer is not None:
            tracer.uninstall()
        if server is not None:
            server.shutdown()
        for setup in setups:
            setup.close()

    tally = plain.tally
    if trace:
        metrics = layer_metrics(name, seed, tracer, plain, traced, coalesced)
        tally.merge(traced.tally)
    else:
        latencies = sorted(tally.latencies)
        metrics = {
            "queries_per_s": plain.queries_per_s(),
            "query_p50_ms": 1e3 * statistics.median(latencies) if latencies else 0.0,
            "query_p95_ms": 1e3 * percentile(latencies, 0.95) if latencies else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
        "samples": len(tally.latencies),
        "errors": tally.errors[:5],
    }


def layer_metrics(name: str, seed: int, tracer, plain: Segment, traced: Segment, coalesced: int) -> dict:
    """The per-layer metrics of one traced run; writes the trace file.

    Times are self seconds per 1000 traced queries (so they read as ms per
    query and add up to the mean query latency); counts are per repetition,
    a hot workload's window counting as one.
    """
    queries = traced.correct or 1
    repetitions = len(traced.repetitions)
    tallies = tracer.tallies()
    seconds = tracer.layer_seconds()

    def count(target: str, useful: bool = False) -> float:
        return tallies[target][1 if useful else 0] / repetitions

    cache = "repro.core.cache_manager.ReCache."
    metrics = {f"{layer}_s": 1e3 * value / queries for layer, value in seconds.items()}
    scanned = sum(t[3] for d, t in tallies.items() if tracer.targets[d] == "formats.scan")
    lookups = count(cache + "lookup")
    metrics.update(
        {
            "formats.records_per_s": scanned / seconds["formats.scan"] if scanned else 0.0,
            "layouts.switches": count(cache + "record_reuse", useful=True),
            "core.cache_manager.hit_share": count(cache + "lookup", useful=True) / lookups if lookups else 0.0,
            "core.cache_manager.admissions_eager": count(cache + "admit_eager", useful=True),
            "core.cache_manager.admissions_lazy": count(cache + "admit_lazy", useful=True),
            "core.cache_manager.evictions": count(cache + "evict_entry"),
            "core.cache_manager.cached_mb": traced.cached_mb,
            "engine.server.coalesced": coalesced,
            "engine.procpool.tasks": count("repro.engine.procpool.ProcessExecutionPool.execute"),
            "untraced_share": 1.0 - sum(seconds.values()) / traced.client_seconds,
            "trace_overhead_share": plain.queries_per_s() / traced.queries_per_s() - 1.0,
        }
    )
    for query_class in HOT_CLASSES:
        values = traced.tally.by_class.get(query_class)
        metrics[f"hot_mix_direct.{query_class}.p50_ms"] = 1e3 * statistics.median(values) if values else 0.0
    tracer.write(
        OUT / f"trace_{name}.json",
        {
            "workload": name,
            "seed": seed,
            "traced_queries": queries,
            "traced_client_seconds": traced.client_seconds,
            "self_seconds": seconds,
        },
    )
    return metrics
