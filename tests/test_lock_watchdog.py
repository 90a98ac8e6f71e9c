"""Unit tests for the runtime lock-order watchdog (tsan-lite)."""

from __future__ import annotations

import threading

import pytest

from repro.analysis.lock_watchdog import (
    LockOrderError,
    LockWatchdog,
    label_locks,
    watch,
)


def test_inversion_is_recorded_with_both_sites():
    low = watch(threading.Lock(), label="low", rank=1)
    high = watch(threading.Lock(), label="high", rank=2)
    with LockWatchdog() as watchdog:
        with high:
            with low:
                pass
    assert len(watchdog.violations) == 1
    message = watchdog.violations[0]
    assert "low (rank 1" in message and "high (rank 2" in message
    assert "test_lock_watchdog.py" in message  # both acquisition sites named
    with pytest.raises(LockOrderError):
        watchdog.assert_clean()


def test_correct_order_and_reacquisition_are_clean():
    low = watch(threading.Lock(), label="low", rank=1)
    high = watch(threading.Lock(), label="high", rank=2)
    with LockWatchdog() as watchdog:
        for _ in range(3):
            with low:
                with high:
                    pass
    watchdog.assert_clean()


def test_rlock_reentrancy_is_not_an_inversion():
    lock = watch(threading.RLock(), label="reentrant", rank=5)
    with LockWatchdog() as watchdog:
        with lock:
            with lock:  # same object: reentrant, not equal-rank nesting
                pass
    watchdog.assert_clean()


def test_equal_rank_pair_is_flagged():
    """The deadlock shape with no safe tiebreak: two rank-20 locks held together."""
    cache_a = watch(threading.Lock(), label="cache0._lock", rank=20)
    cache_b = watch(threading.Lock(), label="cache1._lock", rank=20)
    with LockWatchdog() as watchdog:
        with cache_a:
            with cache_b:
                pass
    assert len(watchdog.violations) == 1


def test_unlabeled_locks_are_tracked_but_unconstrained():
    ranked = watch(threading.Lock(), label="ranked", rank=10)
    unlabeled = watch(threading.Lock())
    with LockWatchdog() as watchdog:
        with ranked:
            with unlabeled:
                pass
        with unlabeled:
            with ranked:
                pass
    watchdog.assert_clean()


def test_factory_wraps_repro_locks_and_label_locks_assigns_ranks():
    with LockWatchdog():
        from repro.core.cache_manager import ReCache
        from repro.core.config import ReCacheConfig

        cache = ReCache(ReCacheConfig())
        assert label_locks(cache) == 1
        assert cache._lock.label == "ReCache._lock"
        assert cache._lock.rank == 20
        # Locks created from test code keep the real primitive.
        local = threading.Lock()
        assert not hasattr(local, "rank")
    # After uninstall the factories are restored: new locks are real.
    assert not isinstance(threading.Lock(), type(cache._lock))


def test_condition_wait_keeps_the_held_stack_consistent():
    """The EngineServer pattern: a Condition sharing a watched lifecycle lock.

    ``wait(timeout)`` releases and reacquires through the wrapper's
    acquire/release; afterwards the held stack must be balanced, so a
    higher-rank acquisition is still clean and a lower-rank one still fires.
    """
    lifecycle = watch(threading.Lock(), label="lifecycle", rank=0)
    condition = threading.Condition(lifecycle)
    leaf = watch(threading.Lock(), label="leaf", rank=30)
    with LockWatchdog() as watchdog:
        with condition:
            condition.wait(timeout=0.01)
            condition.notify_all()
            with leaf:
                pass
    watchdog.assert_clean()
    with LockWatchdog() as watchdog:
        with leaf:
            with condition:  # rank 0 under rank 30: inversion
                pass
    assert len(watchdog.violations) == 1


def test_violations_recorded_in_worker_threads_surface_at_assert():
    low = watch(threading.Lock(), label="low", rank=1)
    high = watch(threading.Lock(), label="high", rank=2)

    def invert():
        with high:
            with low:
                pass

    with LockWatchdog() as watchdog:
        worker = threading.Thread(target=invert, name="inverter")
        worker.start()
        worker.join()
    assert len(watchdog.violations) == 1
    assert "inverter" in watchdog.violations[0]
