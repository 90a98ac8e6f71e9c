"""Chaos-mode parity fuzzing: seeded fault schedules against the full stack.

Each schedule activates a deterministic :class:`~repro.faults.FaultPlan`
(seeded, so any failure replays exactly) and pushes a small query batch
through an :class:`~repro.engine.server.EngineServer`.  The contract under
chaos — the tentpole's acceptance bar — is that every query ends in exactly
one of two states:

* a **bit-identical result** (vs. the reference oracle in ``tests/oracle.py``,
  which parses the raw files itself and so is never fault-injected), or
* a **typed error** (:class:`~repro.core.errors.ReCacheError` subclass),

and never a hang (every ``future.result`` is bounded), never a stranded
future, and never a leaked budget reservation or occupancy byte (checked
after every schedule).

The default run executes ``RECACHE_CHAOS_SCHEDULES`` (220) schedules across
five fault classes — raw-scan faults, cached-layout corruption, admission
budget exhaustion, serving-worker crashes, real worker-*process* kills
against the process pool (``execution_mode=processes``) — plus a mixed
class combining them with deadlines.  When ``RECACHE_CHAOS_REPORT`` names a file, a JSON
summary of schedules, fault mix and outcome counts is written there (the CI
chaos-suite step archives it).
"""

from __future__ import annotations

import json
import os
import random
from concurrent.futures import TimeoutError as FutureTimeoutError

import pytest

from repro import EngineServer, Query, ReCacheConfig
from repro.core.errors import ReCacheError
from repro.engine.expressions import AggregateSpec, FieldRef, RangePredicate
from repro.engine.query import TableRef
from repro.faults import runtime as faults

from tests.conftest import build_engine
from tests.oracle import Oracle, same_rows

CHAOS_SEED = 20260808
CHAOS_SCHEDULES = int(os.environ.get("RECACHE_CHAOS_SCHEDULES", "220"))
RESULT_TIMEOUT = 30.0

#: module-level outcome accumulator, dumped by the session report fixture.
_OUTCOMES: dict = {
    "schedules": 0,
    "ok": 0,
    "offloaded": 0,
    "typed_errors": {},
    "fault_classes": {},
}


# ---------------------------------------------------------------------------
# Schedule generation (pure function of the schedule index)
# ---------------------------------------------------------------------------
def _scan_raw_spec(rng: random.Random) -> str:
    kind = rng.choice(["io_error", "short_read", "latency"])
    if kind == "latency":
        return f"scan.raw:latency:rate=0.2,limit={rng.randint(1, 8)},delay=0.001"
    rate = rng.choice([1.0, 0.5, 0.05])
    limit = rng.randint(1, 3)
    after = rng.choice([0, 0, rng.randint(1, 200)])
    return f"scan.raw:{kind}:rate={rate},limit={limit},after={after}"


def _scan_layout_spec(rng: random.Random) -> str:
    kind = rng.choice(["corrupt", "corrupt", "latency"])
    if kind == "latency":
        return f"scan.layout:latency:rate=0.3,limit={rng.randint(1, 5)},delay=0.001"
    rate = rng.choice([1.0, 0.5])
    return f"scan.layout:corrupt:rate={rate},limit={rng.randint(1, 2)}"


def _budget_spec(rng: random.Random) -> str:
    rate = rng.choice([1.0, 0.5])
    return f"budget.reserve:budget_exhausted:rate={rate}"


def _worker_spec(rng: random.Random) -> str:
    return f"server.worker:worker_crash:rate={rng.choice([1.0, 0.5])},limit={rng.randint(1, 2)}"


FAULT_CLASSES = {
    "scan-raw": lambda rng: _scan_raw_spec(rng),
    "scan-layout": lambda rng: _scan_layout_spec(rng),
    "budget": lambda rng: _budget_spec(rng),
    "worker": lambda rng: _worker_spec(rng),
    # Same spec family as "worker", but served with execution_mode=processes:
    # the plan ships to the pool and the injector fires as a real os._exit in
    # a worker child, not a simulated in-thread crash.
    "proc-worker": lambda rng: _worker_spec(rng),
    "mixed": lambda rng: ";".join(
        rng.sample(
            [_scan_raw_spec(rng), _scan_layout_spec(rng), _budget_spec(rng), _worker_spec(rng)],
            rng.randint(2, 3),
        )
    ),
}


def _chaos_queries(rng: random.Random, with_deadlines: bool) -> list[Query]:
    low = round(rng.uniform(0.0, 80.0), 1)
    width = round(rng.uniform(10.0, 120.0), 1)
    price_low = rng.uniform(0.0, 100000.0)
    queries = [
        Query.select_aggregate(
            "flat",
            RangePredicate("value", low, low + width),
            [AggregateSpec("sum", FieldRef("score")), AggregateSpec("count", FieldRef("id"))],
            label="chaos-flat-agg",
        ),
        Query(
            tables=[TableRef("flat", RangePredicate("value", low, low + width / 2))],
            label="chaos-flat-rows",
        ),
        Query.select_aggregate(
            "orders",
            RangePredicate("o_totalprice", price_low, 1e6),
            [
                AggregateSpec("sum", FieldRef("lineitems.l_quantity")),
                AggregateSpec("count", FieldRef("o_orderkey")),
            ],
            label="chaos-orders-agg",
        ),
    ]
    if with_deadlines and rng.random() < 0.3:
        # A tight-but-feasible deadline: either met (parity) or DeadlineExceeded
        # (typed) — both legal chaos outcomes.
        victim = rng.randrange(len(queries))
        queries[victim] = Query(
            tables=queries[victim].tables,
            aggregates=queries[victim].aggregates,
            label=queries[victim].label,
            deadline=0.05,
        )
    return queries


def _chaos_config(rng: random.Random, processes: bool = False) -> ReCacheConfig:
    # The process-pool class pins the knob the offload path gates on (eager
    # admission) so its crash schedules actually reach real worker children
    # instead of degenerating into in-process fallbacks.
    return ReCacheConfig(
        shard_count=rng.choice([1, 2]),
        cache_size_limit=rng.choice([None, 64_000]),
        adaptive_admission=False if processes else rng.random() < 0.3,
        scan_retry_limit=2,
        scan_retry_backoff=0.0005,
        max_workers=2,
        execution_mode="processes" if processes else "threads",
        # timing-driven layout switches can silently de-export hot entries;
        # the crash class needs them to stay columnar to reach real workers
        layout_selection=not processes,
    )


# ---------------------------------------------------------------------------
# Fault-free reference: the oracle's answer, computed once per distinct query
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def baseline(dataset_dir):
    oracle = Oracle(build_engine(dataset_dir, ReCacheConfig()).catalog)
    cache: dict = {}

    def run(query: Query):
        key = query.signature()
        if key not in cache:
            cache[key] = oracle.evaluate(query)
        return cache[key]

    return run


@pytest.fixture(scope="module", autouse=True)
def chaos_report():
    """Dump the outcome summary when RECACHE_CHAOS_REPORT names a file."""
    yield
    path = os.environ.get("RECACHE_CHAOS_REPORT")
    if path:
        with open(path, "w") as handle:
            json.dump(_OUTCOMES, handle, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# The schedule runner
# ---------------------------------------------------------------------------
def _run_schedule(dataset_dir, baseline, fault_class: str, index: int) -> None:
    # Integer-only seed derivation: string hashing is randomized per process
    # and would break replayability across runs.
    class_index = sorted(FAULT_CLASSES).index(fault_class)
    rng = random.Random(CHAOS_SEED * 1_000_003 + class_index * 100_003 + index)
    spec = FAULT_CLASSES[fault_class](rng)
    seed = rng.randrange(1 << 30)
    config = _chaos_config(rng, processes=fault_class == "proc-worker")
    engine = build_engine(dataset_dir, config)
    queries = _chaos_queries(rng, with_deadlines=fault_class == "mixed")
    context = f"schedule {fault_class}#{index} spec={spec!r} seed={seed}"

    try:
        with EngineServer(engine, max_workers=2) as server:
            with faults.activate(spec, seed=seed):
                futures = server.submit_batch(queries)
                for query, future in zip(queries, futures):
                    try:
                        report = future.result(timeout=RESULT_TIMEOUT)
                    except ReCacheError as exc:
                        _OUTCOMES["typed_errors"][type(exc).__name__] = (
                            _OUTCOMES["typed_errors"].get(type(exc).__name__, 0) + 1
                        )
                    except FutureTimeoutError:
                        pytest.fail(f"HANG: {query.label} never resolved under {context}")
                    else:
                        _OUTCOMES["ok"] += 1
                        assert same_rows(report.results, baseline(query)), (
                            f"parity violation on {query.label} under {context}"
                        )

            # Also run the batch once more fault-free on the same (possibly
            # quarantine-scarred) cache: containment must leave a healthy engine.
            # Deadlines are stripped — only fault pressure may miss them.
            replay = [
                Query(tables=q.tables, joins=q.joins, aggregates=q.aggregates,
                      group_by=q.group_by, label=q.label)
                for q in queries
            ]
            for query, report in zip(replay, server.serve_all(replay, timeout=RESULT_TIMEOUT)):
                assert same_rows(report.results, baseline(query)), (
                    f"post-fault parity violation on {query.label} under {context}"
                )
                _OUTCOMES["offloaded"] += report.offloaded
    finally:
        # Process-pool schedules spawn real children; reap them (and their
        # shared-memory segments) before the leak assertions below.
        engine.close_workers()

    # No stranded futures / leaked backpressure capacity.
    assert server.queue_depth == 0, f"backpressure capacity leaked under {context}"
    # No leaked budget reservation; occupancy equals resident entry bytes.
    budget = getattr(engine.recache, "budget", None)
    if budget is not None:
        assert budget.reserved == 0, f"leaked budget reservation under {context}"
    resident = sum(entry.nbytes for entry in engine.recache.entries())
    assert engine.recache.total_bytes == resident, (
        f"occupancy {engine.recache.total_bytes} != resident {resident} under {context}"
    )

    _OUTCOMES["schedules"] += 1
    _OUTCOMES["fault_classes"][fault_class] = (
        _OUTCOMES["fault_classes"].get(fault_class, 0) + 1
    )


def _class_budget() -> dict[str, int]:
    """Split the schedule budget across the six fault classes."""
    per = CHAOS_SCHEDULES // len(FAULT_CLASSES)
    counts = {name: per for name in FAULT_CLASSES}
    counts["mixed"] += CHAOS_SCHEDULES - per * len(FAULT_CLASSES)
    return counts


@pytest.mark.parametrize("fault_class", sorted(FAULT_CLASSES))
def test_chaos_schedules(dataset_dir, baseline, fault_class):
    for index in range(_class_budget()[fault_class]):
        _run_schedule(dataset_dir, baseline, fault_class, index)


def test_schedule_budget_meets_acceptance_bar():
    assert sum(_class_budget().values()) == CHAOS_SCHEDULES >= 200


def test_process_pool_class_reached_real_workers():
    """The proc-worker class must exercise actual offloads, not fallbacks.

    Replay passes run fault-free against warmed caches, so if the class ran
    at all, at least one query must have executed inside a worker process —
    otherwise the crash schedules only ever tested the in-thread simulation.
    """
    if _OUTCOMES["fault_classes"].get("proc-worker", 0) == 0:
        pytest.skip("proc-worker schedules did not run in this session")
    assert _OUTCOMES["offloaded"] >= 1
