"""Process-pool execution: parity, lifecycle, crash semantics, timing rules.

The worker-process path must be *indistinguishable* from the thread path in
everything but throughput: identical results (it runs the same vectorized
batch pipeline against shared-memory views), identical cache accounting,
typed ``WorkerCrashed`` on real process death, and zero residue — no
``/dev/shm`` segments, no live children — after shutdown.
"""

from __future__ import annotations

import dataclasses
import glob
import os
import random
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro import (
    AggregateSpec,
    EngineServer,
    FieldRef,
    Query,
    QueryEngine,
    RangePredicate,
    ReCacheConfig,
    TableRef,
)
from repro.core.errors import WorkerCrashed
from repro.engine.procpool import ScanTaskResult
from repro.faults import runtime as faults

from tests.conftest import build_engine

PARITY_SEED = 20260808


def _procs_config(**overrides) -> ReCacheConfig:
    # layout_selection is pinned off: the adaptive switcher is timing-driven
    # and can move a hot flat entry off ColumnarLayout mid-test, which makes
    # it non-exportable and starves the offload assertions.
    base = {
        "admission_sample_records": 50,
        "execution_mode": "processes",
        "layout_selection": False,
    }
    base.update(overrides)
    return ReCacheConfig(**base)


def _fuzz_queries(count: int, seed: int) -> list[Query]:
    """A seeded pool of offload-shaped queries (plus a few fallback shapes)."""
    rng = random.Random(seed)
    queries = []
    for index in range(count):
        field = rng.choice(["value", "score"])
        low = rng.uniform(0.0, 80.0)
        width = rng.uniform(5.0, 120.0)
        predicate = RangePredicate(field, low, low + width)
        shape = rng.randrange(4)
        if shape == 0:
            query = Query(tables=[TableRef("flat", predicate)], label=f"fuzz-{index}")
        elif shape == 1:
            query = Query.select_aggregate(
                "flat",
                predicate,
                [AggregateSpec("sum", FieldRef("value")), AggregateSpec("count", FieldRef("id"))],
                label=f"fuzz-{index}",
            )
        elif shape == 2:
            query = Query(
                tables=[TableRef("flat", predicate)],
                aggregates=[AggregateSpec("avg", FieldRef("score"))],
                group_by=["group"],
                label=f"fuzz-{index}",
            )
        else:
            # Nested source: never offloadable, must silently fall back.
            query = Query.select_aggregate(
                "orders",
                RangePredicate("o_totalprice", low * 10, (low + width) * 10),
                [AggregateSpec("count", FieldRef("o_orderkey"))],
                label=f"fuzz-{index}",
            )
        queries.append(query)
    return queries


def _warm(engine: QueryEngine, query: Query) -> None:
    """Admit and fully materialize the entry (first reuse finishes eager build)."""
    engine.execute(query)
    engine.execute(query)


def _assert_no_residue(engine: QueryEngine) -> None:
    pattern = f"/dev/shm/rcshm-{os.getpid()}-*"
    assert glob.glob(pattern) == [], f"leaked shm segments: {glob.glob(pattern)}"
    assert engine._procpool is None or engine._procpool.live_worker_pids() == []


# ---------------------------------------------------------------------------
# Parity fuzz: execution_mode=processes is bit-identical to threads
# ---------------------------------------------------------------------------
def test_process_mode_parity_fuzz(dataset_dir):
    threads = build_engine(dataset_dir, _procs_config(execution_mode="threads"))
    processes = build_engine(dataset_dir, _procs_config())
    try:
        queries = _fuzz_queries(24, PARITY_SEED)
        offloaded = 0
        for repetition in range(2):  # cold pass warms the caches, hot pass offloads
            for query in queries:
                expected = threads.execute(query)
                actual = processes.execute(query)
                assert actual.results == expected.results, (repetition, query.label)
                assert actual.rows_returned == expected.rows_returned
                offloaded += actual.offloaded
        assert offloaded >= 1, "hot flat cache hits never reached the process pool"
    finally:
        processes.close_workers()
    _assert_no_residue(processes)


def test_per_query_execution_mode_override(dataset_dir):
    engine = build_engine(dataset_dir, _procs_config(execution_mode="threads"))
    try:
        query = Query.select_aggregate(
            "flat",
            RangePredicate("value", 10.0, 150.0),
            [AggregateSpec("sum", FieldRef("score"))],
            label="override",
        )
        baseline = engine.execute(query)
        hot = engine.execute(query)
        assert hot.offloaded == 0  # engine default is threads
        forced = engine.execute(query, execution_mode="processes")
        assert forced.offloaded == 1
        assert forced.results == hot.results == baseline.results
        per_query = dataclasses.replace(query, execution_mode="processes")
        tagged = engine.execute(per_query)
        assert tagged.offloaded == 1
        assert tagged.results == hot.results
    finally:
        engine.close_workers()
    _assert_no_residue(engine)


def test_offloaded_scan_still_feeds_cache_accounting(dataset_dir):
    engine = build_engine(dataset_dir, _procs_config())
    try:
        query = Query.select_aggregate(
            "flat",
            RangePredicate("value", 5.0, 120.0),
            [AggregateSpec("sum", FieldRef("value"))],
            label="accounting",
        )
        engine.execute(query)  # miss: admits the entry in-process
        engine.execute(query)  # first reuse finishes eager materialization
        (entry,) = [e for e in engine.recache.entries() if e.source == "flat"]
        observed_before = len(entry.observations)
        hot = engine.execute(query)
        assert hot.offloaded == 1
        assert hot.exact_hits == 1
        assert hot.cache_scan_time > 0.0
        assert hot.lookup_time >= 0.0
        # The worker's measured scan fed the layout selector like any reuse.
        assert len(entry.observations) == observed_before + 1
        assert entry.stats.reuse_count >= 1
    finally:
        engine.close_workers()


# ---------------------------------------------------------------------------
# Crash semantics: real process death -> typed error -> respawn
# ---------------------------------------------------------------------------
def test_worker_crash_is_typed_and_pool_respawns(dataset_dir, assert_budget_conserved):
    engine = build_engine(dataset_dir, _procs_config())
    assert_budget_conserved(engine.recache)
    try:
        query = Query.select_aggregate(
            "flat",
            RangePredicate("value", 0.0, 90.0),
            [AggregateSpec("count", FieldRef("id"))],
            label="crash",
        )
        _warm(engine, query)
        baseline = engine.execute(query)
        assert baseline.offloaded == 1
        first_pids = engine._procpool.live_worker_pids()
        with faults.activate("server.worker:worker_crash:rate=1.0,limit=1", seed=3):
            with pytest.raises(WorkerCrashed):
                engine.execute(query)
        # The crashed worker is gone; the next query gets a fresh process
        # and the scarred cache still serves the identical result.
        after = engine.execute(query)
        assert after.results == baseline.results
        assert after.offloaded == 1
        respawned = engine._procpool.live_worker_pids()
        assert respawned and respawned != first_pids
    finally:
        engine.close_workers()
    _assert_no_residue(engine)


# ---------------------------------------------------------------------------
# Lifecycle: shutdown (either flavor) leaves no segments and no children
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("wait", [True, False])
def test_server_shutdown_reaps_workers_and_unlinks_segments(dataset_dir, wait):
    engine = build_engine(dataset_dir, _procs_config(max_workers=2))
    query = Query.select_aggregate(
        "flat",
        RangePredicate("value", 0.0, 100.0),
        [AggregateSpec("sum", FieldRef("score"))],
        label="lifecycle",
    )
    _warm(engine, query)
    server = EngineServer(engine)
    futures = [server.submit(query) for _ in range(4)]
    for future in futures:
        future.result(timeout=60)
    assert engine._shm_registry is not None
    assert engine._shm_registry.live_segment_names()
    pids = engine._procpool.live_worker_pids()
    assert pids
    server.shutdown(wait=wait)
    deadline = time.time() + 10.0
    while time.time() < deadline and any(_alive(pid) for pid in pids):
        time.sleep(0.05)
    assert not any(_alive(pid) for pid in pids), "zombie worker processes"
    _assert_no_residue(engine)
    # Idempotent: a second teardown must not raise.
    engine.close_workers(wait=wait)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    # Reaped-but-zombie children still answer signal 0; check the state.
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().split()[2] != "Z"
    except OSError:
        return False


_DROP_ENGINE_SCRIPT = textwrap.dedent(
    """
    import gc
    import os
    import sys
    from pathlib import Path

    from repro import AggregateSpec, FieldRef, Query, RangePredicate, ReCacheConfig
    from tests.conftest import build_engine

    if __name__ == "__main__":
        config = ReCacheConfig(
            admission_sample_records=50, execution_mode="processes", layout_selection=False
        )
        engine = build_engine(Path(sys.argv[1]), config)
        query = Query.select_aggregate(
            "flat",
            RangePredicate("value", 0.0, 100.0),
            [AggregateSpec("sum", FieldRef("score"))],
            label="dropped",
        )
        reports = [engine.execute(query) for _ in range(3)]
        assert reports[-1].offloaded == 1, "the hit was not offloaded"
        print(os.getpid())
        del engine, reports
        gc.collect()
    """
)


def test_engine_dropped_without_close_leaves_no_segments(dataset_dir, tmp_path):
    """A process that never calls ``close_workers()`` still unlinks at exit.

    The child offloads a hit (which exports a segment), drops the engine
    unclosed and exits; nothing named after its pid may stay in /dev/shm.
    """
    root = Path(__file__).resolve().parents[1]
    script = tmp_path / "drop_engine.py"
    script.write_text(_DROP_ENGINE_SCRIPT)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    done = subprocess.run(
        [sys.executable, str(script), str(dataset_dir)],
        env=env,
        cwd=root,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    child_pid = int(done.stdout.split()[-1])
    leaked = glob.glob(f"/dev/shm/rcshm-{child_pid}-*")
    for path in leaked:
        os.unlink(path)
    assert leaked == [], f"segments outlived their process: {leaked}"


def test_eviction_retires_the_entrys_segment(dataset_dir):
    engine = build_engine(dataset_dir, _procs_config())
    try:
        query = Query.select_aggregate(
            "flat",
            RangePredicate("value", 0.0, 80.0),
            [AggregateSpec("sum", FieldRef("value"))],
            label="evict",
        )
        _warm(engine, query)
        hot = engine.execute(query)
        assert hot.offloaded == 1
        registry = engine._shm_registry
        assert registry.export_count == 1
        (entry,) = [e for e in engine.recache.entries() if e.source == "flat"]
        engine.recache.evict_entry(entry)
        assert registry.export_count == 0
        assert registry.live_segment_names() == []
        # The source is re-admitted and re-exported on the next hot pass.
        engine.execute(query)
        again = engine.execute(query)
        assert again.results == hot.results
    finally:
        engine.close_workers()
    _assert_no_residue(engine)


# ---------------------------------------------------------------------------
# Timing regression: worker clocks never flow into report wait fields
# ---------------------------------------------------------------------------
def test_worker_results_carry_durations_only():
    """Cross-process ``perf_counter()`` values are not comparable.

    The wire type workers answer with must stay duration-only: any field
    smelling like an absolute instant (``*_at``, enqueue/start/resolve
    stamps) would tempt coordinator code into subtracting worker clocks
    from coordinator clocks, which is meaningless across processes.
    """
    forbidden = ("_at", "enqueued", "started", "resolved", "timestamp", "clock")
    for spec in dataclasses.fields(ScanTaskResult):
        assert not any(token in spec.name for token in forbidden), (
            f"ScanTaskResult.{spec.name} looks like a cross-process timestamp"
        )
    assert {f.name for f in dataclasses.fields(ScanTaskResult)} == {
        "rows",
        "scanned_rows",
        "scan_seconds",
        "operator_seconds",
    }


def test_offload_wait_fields_are_coordinator_owned(dataset_dir):
    """Offloaded reports keep queue fields exactly as the coordinator set them.

    Outside a server no queue exists, so an offloaded execution must report
    zero wait — a nonzero value here could only come from worker-side
    timing leaking into the report.  Through a server, every wait interval
    must fit inside the coordinator's own submit->resolve window.
    """
    engine = build_engine(dataset_dir, _procs_config(max_workers=2))
    try:
        query = Query.select_aggregate(
            "flat",
            RangePredicate("value", 10.0, 90.0),
            [AggregateSpec("count", FieldRef("id"))],
            label="timing",
        )
        _warm(engine, query)
        direct = engine.execute(query)
        assert direct.offloaded == 1
        assert direct.queue_wait_time == 0.0
        assert direct.coalesced_wait_time == 0.0

        submitted = time.perf_counter()
        with EngineServer(engine) as server:
            reports = server.serve_all([query] * 6)
        window = time.perf_counter() - submitted
        assert any(r.offloaded for r in reports)
        for report in reports:
            assert 0.0 <= report.queue_wait_time <= window
            assert 0.0 <= report.coalesced_wait_time <= window
    finally:
        engine.close_workers()
