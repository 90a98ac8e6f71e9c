"""The declared lock partial order and the heavy-work call denylist.

Lock ranks must strictly increase along any nested acquisition chain:
server lifecycle first, then the cache lock, then leaf locks.  Two locks
of the same rank must never be held together (there is no safe
tiebreak).

Modules outside the core (e.g. the lint self-test corpus) can extend the
table with a module-level ``RECHECK_LOCK_RANKS = {"Class._attr": rank}``
literal, which the analyzer merges in.
"""

from __future__ import annotations

#: (class name, lock attribute) -> rank; lower ranks are acquired first.
LOCK_RANKS: dict[tuple[str, str], int] = {
    ("EngineServer", "_lifecycle"): 0,
    ("ReCache", "_lock"): 20,
    # Leaf locks of the failure-containment layer: nothing is acquired
    # under them, and they are never held while taking a cache lock.
    ("SourceCircuitBreaker", "_lock"): 30,
    ("_InjectorState", "_lock"): 30,
    # Leaf locks of the process-pool execution layer: the shm registry's
    # lock may be taken under the ReCache._lock (eviction retires the
    # entry's segment in the same critical section), so it must outrank 20;
    # neither lock ever wraps a cache or serving lock.
    ("ShmRegistry", "_lock"): 30,
    ("ProcessExecutionPool", "_lock"): 30,
}

#: Lock attribute names whose rank is recoverable even when acquired on a
#: receiver other than ``self`` (e.g. ``with cache._lock:``), or on a class
#: missing from ``LOCK_RANKS``.  ``_lock`` maps to the ReCache tier.
LOCK_RANKS_BY_ATTR: dict[str, int] = {
    "_lifecycle": 0,
    "_backpressure": 0,
    "_lock": 20,
}

#: Plain function names whose calls are forbidden while holding a lock.
HEAVY_CALL_NAMES: frozenset[str] = frozenset(
    {"build_layout", "convert_layout", "stripe_records", "open", "sleep", "print"}
)

#: Attribute (method) names whose calls are forbidden while holding a lock.
HEAVY_CALL_ATTRS: frozenset[str] = frozenset(
    {
        "convert",
        "scan",
        "scan_batches",
        "range_filtered_batch",
        "read_record_batches",
        "read_record_rows",
        "sleep",
        "open",
        "execute",
    }
)
