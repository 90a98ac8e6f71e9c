"""Deadlock stress: concurrent admit/lookup/quarantine under the lock watchdog.

Eight client threads hammer one small :class:`ReCache` hard enough that
admissions constantly evict, while lookups, exact probes and quarantines of
entries other threads may already have evicted interleave with them.  Every
lock is labeled with its declared rank, so any dynamic acquisition-order
inversion (the deadlock shape the static pass cannot see through
indirection) is recorded and fails the test.
"""

from __future__ import annotations

import sys
import threading

from repro.analysis.lock_watchdog import LockWatchdog, label_locks
from repro.core.cache_manager import ReCache
from repro.core.config import ReCacheConfig
from repro.engine.expressions import RangePredicate
from repro.engine.types import FLOAT, INT, Field, RecordType
from repro.layouts import build_layout

SCHEMA = RecordType([Field("id", INT), Field("value", FLOAT)])


def _layout(rows: int):
    data = [{"id": i, "value": float(i)} for i in range(rows)]
    return build_layout("columnar", SCHEMA, ["id", "value"], rows=data)


def test_cache_stress_has_no_lock_order_inversions():
    watchdog = LockWatchdog().install()
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # force interleavings inside critical sections
    try:
        # Constructed under the watchdog so the cache lock is wrapped.
        limit = _layout(25).nbytes * 5
        cache = ReCache(ReCacheConfig(cache_size_limit=limit))
        assert label_locks(cache) == 1, "expected the cache lock to be labeled"

        errors: list[Exception] = []

        def client(worker: int) -> None:
            try:
                for step in range(30):
                    index = worker * 1000 + step
                    rows = 25 + (index % 3) * 10
                    predicate = RangePredicate("value", float(index), float(index) + 0.5)
                    cache.begin_query()
                    entry = cache.admit_eager(
                        "s", "csv", predicate, ["id", "value"], _layout(rows),
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

        assert not errors
        assert cache.total_bytes <= limit
        assert cache.total_bytes == sum(e.nbytes for e in cache.entries())
        # Enough churn to exercise capacity eviction, not just happy admits.
        capacity_evictions = cache.stats.evictions - cache.stats.quarantined
        assert capacity_evictions >= 1
        watchdog.assert_clean()
    finally:
        sys.setswitchinterval(switch_interval)
        watchdog.uninstall()
