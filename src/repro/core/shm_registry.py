"""Shared-memory export registry for cached flat columnar views.

The process-pool execution path (``repro.engine.procpool``) cannot share
Python objects with worker processes, but the hot cache entries it serves
are exactly the ones whose columns are already flat and numeric.  This
module publishes those columns zero-copy(ish) into POSIX shared memory so
workers can map them with ``np.ndarray(buffer=...)`` and run the same
vectorized batch pipeline the coordinator threads use.

Lifecycle invariants (machine-checked by the recheck-lint ``shm-lifecycle``
rule and the procpool lifecycle tests):

* every segment created here has a paired unlink path — the failure branch
  of the builder, :meth:`ShmRegistry.retire` (wired into cache eviction),
  :meth:`ShmRegistry.unlink_all` (wired into engine shutdown), and a
  finalizer that unlinks whatever a registry still holds when it is
  garbage-collected or the process exits without closing it;
* segment names are generation-stamped (``rcshm-<pid>-<registry>-<serial>``,
  where ``<registry>`` is a process-wide instance counter so engines sharing
  a process never collide) and never reused, so a worker holding a stale
  descriptor attaches a dead name and gets a typed failure instead of
  silently reading evicted bytes;
* the registry untracks its segments from ``multiprocessing``'s resource
  tracker — ownership is explicit here, not in the tracker daemon, so
  spawn-mode children do not double-unlink coordinator segments.

Only eager, flat (no nested ``record_row_counts``) :class:`ColumnarLayout`
entries whose columns are pure ``float``/``int`` are exportable; anything
else returns ``None`` and the caller falls back to in-process execution.

# recheck-lint: check-shm-lifecycle
"""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
import weakref
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.core.cache_entry import CacheEntry
from repro.layouts.columnar import ColumnarLayout


@dataclass(frozen=True)
class ShmColumnRef:
    """One column's region inside a shared segment (picklable descriptor)."""

    field: str
    dtype: str  # numpy dtype string: "float64" or "int64"
    offset: int
    count: int


@dataclass(frozen=True)
class EntryExport:
    """A cache entry's complete shared-memory descriptor.

    ``generation`` equals the registry serial baked into ``segment`` — a
    worker that attaches a retired generation gets ``FileNotFoundError``
    (the name is never reused), which the coordinator treats as a cache
    miss for offload purposes and re-executes locally.
    """

    segment: str
    generation: int
    row_count: int
    fields: tuple[str, ...]
    columns: tuple[ShmColumnRef, ...]


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Remove ``shm`` from the resource tracker; this registry owns cleanup."""
    with contextlib.suppress(KeyError, ValueError):  # tracker internals vary
        resource_tracker.unregister(shm._name, "shared_memory")  # noqa: SLF001


def _discard_segment(shm: shared_memory.SharedMemory) -> None:
    """Close and unlink one segment; tolerant of an already-unlinked name."""
    shm.close()
    # FileNotFoundError: raced with process exit, already unlinked.
    with contextlib.suppress(FileNotFoundError):
        # ``unlink()`` sends an UNREGISTER for a name this registry already
        # untracked at creation; re-register first so the tracker daemon's
        # bookkeeping stays balanced (otherwise it prints KeyError noise).
        resource_tracker.register(shm._name, "shared_memory")  # noqa: SLF001
        shm.unlink()


#: process-wide instance counter: registries of distinct engines in one
#: process must mint segment names in disjoint namespaces.
_REGISTRY_SEQ = itertools.count(1)


def _discard_exports(exports: dict) -> None:
    """Unlink every segment left in an unclosed registry's export table."""
    records = list(exports.values())
    exports.clear()
    for record in records:
        _discard_segment(record[1])


class ShmRegistry:
    """Publishes exportable cache entries into shared memory, once each.

    The registry is attached to the cache (``ReCache.attach_shm_registry``)
    so eviction retires the segment in the same critical section that drops
    the entry — a worker can then only ever observe "segment present with
    live generation" or "name gone", never stale bytes under a live name.
    """

    GUARDED_BY = {
        "_exports": "_lock",
        "_ineligible": "_lock",
        "_serial": "_lock",
        "_closed": "_lock",
    }

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._namespace = f"rcshm-{os.getpid()}-{next(_REGISTRY_SEQ)}"
        #: entry_id -> (entry, segment handle, export descriptor)
        self._exports: dict[int, tuple[CacheEntry, shared_memory.SharedMemory, EntryExport]] = {}
        #: entry_ids whose *column typing* failed — stable across layout
        #: switches (values survive conversion), so safe to cache forever
        self._ineligible: set[int] = set()
        self._serial = 0
        self._closed = False
        # Runs when an engine is dropped without close_workers(), or at exit
        # for one still alive; it holds the export table, never the registry.
        self._finalizer = weakref.finalize(self, _discard_exports, self._exports)

    # -- export ---------------------------------------------------------------
    def export_for(self, entry: CacheEntry) -> EntryExport | None:
        """The entry's shared-memory descriptor, building it on first use.

        Returns ``None`` when the entry is not exportable (lazy, non-columnar,
        nested, or non-numeric columns) or the registry is closed.  Cheap
        structural gates are re-checked every call — a lazy entry may be
        upgraded to eager and a layout switch may make it columnar later;
        only the typing verdict is cached.
        """
        with self._lock:
            if self._closed:
                return None
            cached = self._exports.get(entry.entry_id)
            if cached is not None:
                return cached[2]
            if entry.entry_id in self._ineligible:
                return None
        layout = entry.layout
        if entry.mode != "eager" or not isinstance(layout, ColumnarLayout):
            return None
        if layout.record_row_counts is not None:
            return None
        arrays: dict[str, np.ndarray] = {}
        for field in layout.fields:
            arr = _typed_column(layout.column(field))
            if arr is None:
                with self._lock:
                    self._ineligible.add(entry.entry_id)
                return None
            arrays[field] = arr
        with self._lock:
            if self._closed:
                return None
            self._serial += 1
            serial = self._serial
        shm, refs = self._build_segment(serial, arrays)
        export = EntryExport(
            segment=shm.name,
            generation=serial,
            row_count=layout.flattened_row_count,
            fields=tuple(layout.fields),
            columns=refs,
        )
        with self._lock:
            existing = self._exports.get(entry.entry_id)
            if existing is None and not self._closed:
                self._exports[entry.entry_id] = (entry, shm, export)
                return export
            installed = existing[2] if existing is not None else None
        # Lost a concurrent-build race (or the registry closed underneath
        # us): our fresh segment was never published, discard it.
        _discard_segment(shm)
        return installed

    def _build_segment(
        self, serial: int, arrays: dict[str, np.ndarray]
    ) -> tuple[shared_memory.SharedMemory, tuple[ShmColumnRef, ...]]:
        """Create one generation-stamped segment holding every column."""
        total = sum(arr.nbytes for arr in arrays.values())
        shm = shared_memory.SharedMemory(
            name=f"{self._namespace}-{serial}", create=True, size=max(total, 1)
        )
        _untrack(shm)
        try:
            refs = []
            offset = 0
            for field, arr in arrays.items():
                view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=offset)
                view[:] = arr
                refs.append(ShmColumnRef(field, str(arr.dtype), offset, int(arr.shape[0])))
                offset += arr.nbytes
        except BaseException:
            _discard_segment(shm)
            raise
        return shm, tuple(refs)

    # -- retirement -----------------------------------------------------------
    def retire(self, entry: CacheEntry) -> None:
        """Unlink the entry's segment (idempotent; called on eviction)."""
        with self._lock:
            record = self._exports.pop(entry.entry_id, None)
        if record is not None:
            _discard_segment(record[1])

    def unlink_all(self) -> None:
        """Unlink every live segment (idempotent; shutdown + exit hook)."""
        with self._lock:
            records = list(self._exports.values())
            self._exports.clear()
        for record in records:
            _discard_segment(record[1])

    def close(self) -> None:
        """Stop accepting exports, unlink everything, release the finalizer."""
        with self._lock:
            self._closed = True
        self.unlink_all()
        self._finalizer.detach()

    # -- introspection --------------------------------------------------------
    def live_segment_names(self) -> list[str]:
        with self._lock:
            return [record[1].name for record in self._exports.values()]

    @property
    def export_count(self) -> int:
        with self._lock:
            return len(self._exports)


def _typed_column(values: list) -> np.ndarray | None:
    """A float64/int64 array for a pure-typed column, else ``None``.

    ``type(v) is`` checks (not ``isinstance``) keep ``bool`` out of int
    columns and reject None/str/mixed columns — the exported bytes must
    round-trip to the exact Python values the thread path would scan, or
    parity with in-process execution breaks.
    """
    if not values:
        return np.empty(0, dtype=np.float64)
    first = type(values[0])
    if first is float:
        if any(type(v) is not float for v in values):
            return None
        return np.asarray(values, dtype=np.float64)
    if first is int:
        if any(type(v) is not int for v in values):
            return None
        try:
            return np.asarray(values, dtype=np.int64)
        except OverflowError:
            return None
    return None
