"""Runtime lock-order watchdog: a tsan-lite for the test suite.

``LockWatchdog.install()`` monkeypatches ``threading.Lock``/``RLock`` so
that locks created *from repro modules* (caller-frame filtered — thread
machinery, pools and test helpers keep real primitives) come back wrapped
in :class:`_WatchedLock`.  Every acquisition is recorded on a per-thread
held stack; acquiring a ranked lock while already holding a lock of an
equal or higher rank records an order-inversion violation, including the
acquisition sites of both locks.  Violations are *recorded*, never raised
in the worker thread — the pytest fixture calls :meth:`assert_clean` at
teardown so the failure lands in the right test.

Ranks come from :data:`repro.analysis.order.LOCK_RANKS` via
:func:`label_locks`, which names the watched lock attributes of live
objects (``ReCache._lock`` → rank 20, ...).  Unlabeled locks are tracked
on the held stack but unconstrained, so partially-labeled trees degrade
gracefully instead of false-positiving.

The static lock-order rule sees only lexically nested ``with`` blocks;
this watchdog sees the dynamic truth — the cache lock held across a call
that internally grabs a leaf lock, callback re-entrancy, and anything
else hidden behind indirection.
"""

from __future__ import annotations

import sys
import threading

from repro.analysis.order import LOCK_RANKS

_REAL_LOCK = threading.Lock
_REAL_RLOCK = threading.RLock

#: Innermost active watchdog (install() pushes, uninstall() pops).
_ACTIVE: list["LockWatchdog"] = []


class LockOrderError(AssertionError):
    """Raised by :meth:`LockWatchdog.assert_clean` when inversions occurred."""


def _current() -> "LockWatchdog | None":
    try:
        return _ACTIVE[-1]
    except IndexError:  # uninstalled concurrently with a worker's acquire
        return None


def _acquisition_site() -> str:
    """file:line of the repro/test frame performing the acquisition."""
    frame = sys._getframe(2)
    while frame is not None:
        name = frame.f_globals.get("__name__", "")
        if name != __name__:
            return f"{frame.f_code.co_filename}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"  # pragma: no cover


class _WatchedLock:
    """Wraps a real lock; reports acquire/release to the active watchdog.

    Deliberately does NOT proxy ``_release_save``/``_acquire_restore``/
    ``_is_owned``: ``threading.Condition`` then falls back to its default
    implementations, which route through our ``acquire``/``release`` and
    keep the held stack consistent across ``wait()``.
    """

    __slots__ = ("inner", "label", "rank")

    def __init__(self, inner, label: str | None = None, rank: int | None = None):
        self.inner = inner
        self.label = label
        self.rank = rank

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self.inner.acquire(blocking, timeout)
        watchdog = _current()
        if acquired and watchdog is not None:
            watchdog._record_acquire(self, _acquisition_site())
        return acquired

    def release(self) -> None:
        watchdog = _current()
        if watchdog is not None:
            watchdog._record_release(self)
        self.inner.release()

    def locked(self) -> bool:
        return self.inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()

    def _at_fork_reinit(self) -> None:  # pragma: no cover - fork support
        self.inner._at_fork_reinit()

    def __repr__(self) -> str:
        name = self.label or "<unlabeled>"
        return f"<_WatchedLock {name} rank={self.rank} {self.inner!r}>"


class LockWatchdog:
    """Records per-thread lock acquisition stacks and rank inversions."""

    def __init__(self) -> None:
        self.violations: list[str] = []
        self._held = threading.local()  # list[(lock, site)] per thread

    # -- lifecycle ----------------------------------------------------------
    def install(self) -> "LockWatchdog":
        if not _ACTIVE:
            threading.Lock = _lock_factory
            threading.RLock = _rlock_factory
        _ACTIVE.append(self)
        return self

    def uninstall(self) -> None:
        if self in _ACTIVE:
            _ACTIVE.remove(self)
        if not _ACTIVE:
            threading.Lock = _REAL_LOCK
            threading.RLock = _REAL_RLOCK

    def __enter__(self) -> "LockWatchdog":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def assert_clean(self) -> None:
        if self.violations:
            details = "\n  ".join(self.violations)
            raise LockOrderError(f"lock-order inversions detected:\n  {details}")

    # -- recording ----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = self._held.stack = []
        return stack

    def _record_acquire(self, lock: _WatchedLock, site: str) -> None:
        stack = self._stack()
        already_held = any(held is lock for held, _ in stack)
        if lock.rank is not None and not already_held:
            for held, held_site in stack:
                if held is lock or held.rank is None:
                    continue
                if lock.rank <= held.rank:
                    self.violations.append(
                        f"{lock.label} (rank {lock.rank}, acquired at {site}) "
                        f"while holding {held.label} (rank {held.rank}, "
                        f"acquired at {held_site}) in thread "
                        f"{threading.current_thread().name}"
                    )
                    break
        stack.append((lock, site))

    def _record_release(self, lock: _WatchedLock) -> None:
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index][0] is lock:
                del stack[index]
                return
        # Release of a lock acquired before this watchdog was active: ignore.


def _caller_is_repro() -> bool:
    name = sys._getframe(2).f_globals.get("__name__", "")
    return name.startswith("repro.") and not name.startswith("repro.analysis")


def _lock_factory():
    inner = _REAL_LOCK()
    return _WatchedLock(inner) if _caller_is_repro() else inner


def _rlock_factory():
    inner = _REAL_RLOCK()
    return _WatchedLock(inner) if _caller_is_repro() else inner


def watch(lock, label: str | None = None, rank: int | None = None) -> _WatchedLock:
    """Wrap an explicit lock (tests build labeled locks directly with this)."""
    return _WatchedLock(lock, label=label, rank=rank)


def label_locks(obj, prefix: str | None = None) -> int:
    """Name + rank every watched-lock attribute of ``obj``; returns count.

    Labels are ``ClassName._attr`` and ranks come from ``LOCK_RANKS``, so
    runtime enforcement follows the same declared order as the static
    pass.  Objects created while no watchdog factory was installed hold
    real locks and are skipped (count 0).
    """
    cls = type(obj).__name__
    labeled = 0
    attrs: dict[str, object] = {}
    for klass in reversed(type(obj).__mro__):  # slotted classes have no __dict__
        for slot in getattr(klass, "__slots__", ()):
            if hasattr(obj, slot):
                attrs[slot] = getattr(obj, slot)
    attrs.update(getattr(obj, "__dict__", {}))
    for attr, value in attrs.items():
        if isinstance(value, _WatchedLock):
            value.label = f"{prefix or cls}.{attr}"
            for klass in type(obj).__mro__:
                rank = LOCK_RANKS.get((klass.__name__, attr))
                if rank is not None:
                    value.rank = rank
                    break
            labeled += 1
    return labeled
