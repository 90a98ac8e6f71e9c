"""Seeded ``heavy-work`` violations for the self-test.

One plant per lock-region form the rule recognises: a lock on ``self`` and
the same declared lock reached through another receiver.
"""

from __future__ import annotations

import threading
import time


class Coordinator:
    """Declares ``_lock`` through ``GUARDED_BY``, which makes it a lock name."""

    GUARDED_BY = {"_state": "_lock"}

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._state = 0

    def heavy_outside_lock(self) -> None:
        time.sleep(0)
        with self._lock:
            self._state += 1

    def heavy_under_lock(self) -> None:
        with self._lock:
            self._state += 1
            time.sleep(0)  # PLANTED: heavy-work


def scan_under_cache_lock(cache, predicate):
    with cache._lock:
        return list(cache.scan_batches(predicate))  # PLANTED: heavy-work
