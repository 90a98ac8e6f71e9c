"""Cache-core regression tests and multi-threaded stress tests.

Covers the three correctness fixes of the concurrency PR (positional-map
completeness, the guarded admission build, the byte-budget re-check after
eviction) plus thread-safety invariants of the one shared :class:`ReCache`
under a mixed hit/miss/evicting workload and under raw cache-level churn.
"""

from __future__ import annotations

import sys
import threading

from repro import Query, QueryEngine, ReCache, ReCacheConfig
from repro.core.eviction import EvictionPolicy
from repro.engine.expressions import AggregateSpec, FieldRef, RangePredicate
from repro.engine.server import EngineServer
from repro.engine.types import FLOAT, INT, Field, RecordType
from repro.formats import write_csv
from repro.formats.csv_plugin import CSVPlugin
from repro.layouts import build_layout

from tests.conftest import build_engine

SMALL_SCHEMA = RecordType([Field("id", INT), Field("value", FLOAT)])


def _write_small_csv(tmp_path, rows=100):
    path = tmp_path / "small.csv"
    write_csv(path, SMALL_SCHEMA, [{"id": i, "value": float(i)} for i in range(rows)])
    return path


# ---------------------------------------------------------------------------
# Regression: PositionalMap completeness
# ---------------------------------------------------------------------------
def test_abandoned_scan_does_not_mark_positional_map_complete(tmp_path):
    plugin = CSVPlugin(_write_small_csv(tmp_path), SMALL_SCHEMA)
    scan = plugin.scan()
    for _ in range(5):  # pull a handful of records, then abandon the generator
        next(scan)
    scan.close()
    assert not plugin.positional_map.complete
    # A partial map must not report a partial record count as the file total.
    assert plugin.record_count() == 100
    assert plugin.positional_map.complete


def test_completed_scan_publishes_complete_map(tmp_path):
    plugin = CSVPlugin(_write_small_csv(tmp_path), SMALL_SCHEMA)
    assert not plugin.positional_map.complete
    rows = list(plugin.scan())
    assert len(rows) == 100
    assert plugin.positional_map.complete
    assert plugin.positional_map.record_count == 100


def test_concurrent_first_scans_build_one_consistent_map(tmp_path):
    plugin = CSVPlugin(_write_small_csv(tmp_path), SMALL_SCHEMA)
    errors: list[Exception] = []

    def scan_all():
        try:
            assert len(list(plugin.scan())) == 100
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=scan_all) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert plugin.positional_map.complete
    assert plugin.positional_map.record_count == 100
    # Offsets must be the single coherent map of one full scan, not an
    # interleaving of several partial builders.
    assert plugin.positional_map.record_offsets == sorted(set(plugin.positional_map.record_offsets))


def test_blank_lines_do_not_shift_lazy_record_ordinals(tmp_path):
    """Map ordinals must match yielded-record ordinals even across blank lines."""
    path = tmp_path / "gaps.csv"
    lines = []
    for i in range(20):
        lines.append(f"{i}|{float(i)}")
        if i == 9:
            lines.append("")  # interior blank line
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    plugin = CSVPlugin(path, SMALL_SCHEMA)
    scanned = list(plugin.scan())
    assert len(scanned) == 20
    assert plugin.positional_map.record_count == 20
    # Records after the blank line must resolve to themselves, not be off by one.
    fetched = [row for batch in plugin.read_record_batches(range(20)) for row in batch.to_rows()]
    assert fetched == scanned

    # End-to-end: a lazy cache stores yielded ordinals; reusing it re-reads
    # records through the map and must return the same rows as the raw scan.
    engine = QueryEngine(ReCacheConfig(admission="lazy"))
    engine.register_csv("gaps", path, SMALL_SCHEMA)
    query = Query.select_aggregate(
        "gaps",
        RangePredicate("value", 5.0, 15.0),
        [AggregateSpec("sum", FieldRef("value"))],
        label="gaps-q",
    )
    first = engine.execute(query)
    second = engine.execute(query)  # served from the lazy cache
    assert second.cache_hits == 1
    expected = sum(float(i) for i in range(5, 16))
    assert second.results == first.results == [{"sum($value)": expected}]


# ---------------------------------------------------------------------------
# Regression: guarded admission build
# ---------------------------------------------------------------------------
def test_failed_layout_build_skips_admission_cleanly(tmp_path, monkeypatch):
    config = ReCacheConfig(admission="eager")  # straight to the eager path
    engine = QueryEngine(config)
    engine.register_csv("small", _write_small_csv(tmp_path), SMALL_SCHEMA)

    def broken_build(*args, **kwargs):
        raise ValueError("degenerate result")

    monkeypatch.setattr("repro.engine.executor.build_layout", broken_build)
    query = Query.select_aggregate(
        "small",
        RangePredicate("value", 10.0, 20.0),
        [AggregateSpec("sum", FieldRef("value"))],
        label="broken-admit",
    )
    report = engine.execute(query)  # must not raise
    assert report.rows_returned == 1
    assert engine.cache_stats.admissions_skipped == 1
    assert engine.cache_stats.admissions_eager == 0
    assert len(engine.recache.entries()) == 0


# ---------------------------------------------------------------------------
# Regression: byte budget re-checked after eviction
# ---------------------------------------------------------------------------
class _StubbornPolicy(EvictionPolicy):
    """A broken policy that never frees anything (simulates under-eviction)."""

    name = "stubborn"

    def choose_victims(self, entries, bytes_to_free):
        return []


def _flat_layout(row_count: int):
    rows = [{"id": i, "value": float(i)} for i in range(row_count)]
    return build_layout("columnar", SMALL_SCHEMA, ["id", "value"], rows=rows)


def test_admission_rejected_when_eviction_frees_too_little():
    first = _flat_layout(40)
    limit = first.nbytes + 10
    cache = ReCache(ReCacheConfig(cache_size_limit=limit))
    cache.policy = _StubbornPolicy()

    admitted = cache.admit_eager("s", "csv", RangePredicate("value", 0.0, 1.0), ["id", "value"],
                                 first, operator_time=0.1, caching_time=0.01)
    assert admitted is not None

    second = _flat_layout(40)
    rejected = cache.admit_eager("s", "csv", RangePredicate("value", 2.0, 3.0), ["id", "value"],
                                 second, operator_time=0.1, caching_time=0.01)
    assert rejected is None
    assert cache.stats.admissions_skipped == 1
    assert cache.total_bytes <= limit
    assert cache.total_bytes == sum(entry.nbytes for entry in cache.entries())


def test_lazy_upgrade_declined_when_budget_cannot_absorb_it():
    small = _flat_layout(5)
    cache = ReCache(ReCacheConfig(cache_size_limit=small.nbytes + 100))
    cache.policy = _StubbornPolicy()
    entry = cache.admit_lazy("s", "csv", RangePredicate("value", 0.0, 1.0), ["id", "value"],
                             offsets=list(range(5)), operator_time=0.1, caching_time=0.01)
    assert entry is not None
    huge = _flat_layout(500)
    assert huge.nbytes > cache.config.cache_size_limit
    assert cache.upgrade_lazy(entry, huge, caching_time=0.01) is False
    assert entry.is_lazy
    assert cache.total_bytes <= cache.config.cache_size_limit


# ---------------------------------------------------------------------------
# Stress: mixed hit/miss/evicting traffic from many threads
# ---------------------------------------------------------------------------
def test_stress_under_mixed_concurrent_traffic(dataset_dir):
    config = ReCacheConfig(cache_size_limit=48 * 1024, admission_sample_records=50)
    engine = build_engine(dataset_dir, config)
    recache = engine.recache
    limit = config.cache_size_limit

    hot = [
        Query.select_aggregate(
            "flat",
            RangePredicate("value", float(i * 10), float(i * 10 + 40)),
            [AggregateSpec("avg", FieldRef("score"))],
            label=f"hot{i}",
        )
        for i in range(4)
    ]

    def cold(client: int, step: int) -> Query:
        low = float((client * 97 + step * 31) % 150)
        return Query.select_aggregate(
            "flat",
            RangePredicate("value", low, low + 7.0),
            [AggregateSpec("max", FieldRef("value"))],
            label=f"cold-{client}-{step}",
        )

    budget_violations: list[int] = []
    errors: list[Exception] = []

    with EngineServer(engine, max_workers=8) as server:

        def client(index: int) -> None:
            try:
                for step in range(25):
                    query = hot[step % len(hot)] if step % 2 == 0 else cold(index, step)
                    server.execute(query)
                    occupancy = recache.total_bytes
                    if occupancy > limit:
                        budget_violations.append(occupancy)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive(), "client thread hung (deadlock?)"

    assert not errors, errors[:1]
    assert not budget_violations, f"byte budget exceeded: {max(budget_violations)} > {limit}"

    stats = recache.stats
    for field_name in ("lookups", "exact_hits", "subsumption_hits", "misses",
                       "admissions_eager", "admissions_lazy", "admissions_skipped",
                       "evictions", "evicted_bytes", "layout_switches", "lazy_upgrades"):
        assert getattr(stats, field_name) >= 0, field_name
    assert stats.lookups == stats.hits + stats.misses
    assert stats.lookups == 8 * 25

    # No lost or phantom entries: the directory, the byte accounting and the
    # subsumption index must agree.
    entries = recache.entries()
    assert len(recache) == len(entries)
    assert recache.total_bytes == sum(entry.nbytes for entry in entries)
    assert recache.total_bytes <= limit
    for entry in entries:
        assert recache.get_exact(entry.source, entry.predicate) is entry


def test_cache_churn_never_deadlocks():
    """Concurrent admit/lookup/quarantine on one small cache.

    Eight client threads hammer a :class:`ReCache` hard enough that
    admissions constantly evict, while lookups, exact probes and quarantines
    of entries other threads may already have evicted interleave with them.
    A tiny switch interval forces preemption inside critical sections; the
    bounded joins turn a deadlock into a failure instead of a hang.
    """
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        limit = _flat_layout(25).nbytes * 5
        cache = ReCache(ReCacheConfig(cache_size_limit=limit))
        errors: list[Exception] = []

        def client(worker: int) -> None:
            try:
                for step in range(30):
                    index = worker * 1000 + step
                    rows = 25 + (index % 3) * 10
                    predicate = RangePredicate("value", float(index), float(index) + 0.5)
                    cache.begin_query()
                    entry = cache.admit_eager(
                        "s", "csv", predicate, ["id", "value"], _flat_layout(rows),
                        operator_time=0.1 + step * 0.01, caching_time=0.01,
                    )
                    cache.lookup("s", predicate, ["id", "value"])
                    cache.get_exact("s", predicate)
                    if entry is not None and step % 7 == 0:
                        cache.quarantine(entry)
                    assert cache.total_bytes <= limit, "byte budget violated"
            except Exception as exc:  # noqa: BLE001 - surfaced to the main thread
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(w,)) for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive(), "client thread hung (deadlock?)"
    finally:
        sys.setswitchinterval(switch_interval)

    assert not errors
    assert cache.total_bytes <= limit
    assert cache.total_bytes == sum(e.nbytes for e in cache.entries())
    # Enough churn to exercise capacity eviction, not just happy admits.
    capacity_evictions = cache.stats.evictions - cache.stats.quarantined
    assert capacity_evictions >= 1
