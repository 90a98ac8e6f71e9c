"""Worker-process execution pool over shared-memory cached columns.

This is the "escape the GIL" half of the serving tier: coordinator threads
keep owning admission, eviction, byte accounting and future
resolution, while the vectorized scan/aggregate work for cache-hit queries
is shipped to worker *processes* as compact, picklable plan descriptors
(:class:`ScanTask`).  Workers map the columns the :class:`ShmRegistry`
published into shared memory, rebuild a schema-free :class:`ColumnarLayout`
around them, and run the exact same batch pipeline
(``range_filtered_batch`` → ``aggregate_batches``/``rows_from_batches``)
the in-process path runs — parity with ``execution_mode=threads`` is by
construction, not by re-implementation.

Timing discipline (the cross-process clock bugfix): workers report only
*durations* measured on their own monotonic clock (:class:`ScanTaskResult`
carries ``scan_seconds``/``operator_seconds``, never ``*_at`` timestamps).
All queue/wait intervals are computed in the coordinator from coordinator
clocks; a regression test introspects the result type to keep it that way.

Crash semantics: the ``server.worker:worker_crash`` fault scope maps to
*real* process death here (``os._exit``), not a raised exception.  The pool
detects the dead pipe, raises a typed :class:`WorkerCrashed` to the caller
(budget conserved, futures failed — same containment contract as the
thread path), and respawns a replacement on the next checkout.
"""

from __future__ import annotations

import contextlib
import os
import queue
import threading
import time
from dataclasses import dataclass
from multiprocessing import get_context, resource_tracker, shared_memory

import numpy as np

from repro.core.errors import ReCacheError, WorkerCrashed
from repro.core.shm_registry import EntryExport
from repro.engine.expressions import AggregateSpec
from repro.faults import runtime as faults

_IDLE_POLL_SECONDS = 0.05
_JOIN_TIMEOUT_SECONDS = 5.0
_WORKER_LAYOUT_CACHE = 32
_CRASH_EXIT_CODE = 11


@dataclass(frozen=True)
class ScanTask:
    """One offloaded cache-hit scan, fully described by picklable values.

    ``fault_specs`` re-serializes the coordinator's active fault plan
    (``FaultSpec.as_string()``) so chaos schedules reach into workers; the
    worker re-installs the plan whenever the (specs, seed) signature
    changes.
    """

    export: EntryExport
    ranges: tuple[tuple[str, float, float], ...]
    fields: tuple[str, ...]
    aggregates: tuple[AggregateSpec, ...]
    group_by: tuple[str, ...]
    fault_specs: tuple[str, ...] = ()
    fault_seed: int = 0


@dataclass(frozen=True)
class ScanTaskResult:
    """A worker's answer: rows plus *durations only*.

    No ``perf_counter()`` timestamps cross the process boundary — worker
    and coordinator clocks are not comparable, so wait intervals must be
    computed coordinator-side (see the timing regression test).
    """

    rows: list[dict]
    scanned_rows: int
    scan_seconds: float
    operator_seconds: float


# ===========================================================================
# Worker side (runs in the child process)
# ===========================================================================
def _attach_layout(
    export: EntryExport, cache: dict[str, tuple[shared_memory.SharedMemory, object]]
):
    """Map the export's segment and rebuild a scannable ColumnarLayout.

    The float64 column views are pre-seeded zero-copy straight off the
    mapped buffer (int64 columns get one ``astype`` copy); the Python-list
    columns are exact ``tolist()`` round-trips, so row materialization and
    aggregation see the same values the coordinator cached.
    """
    from repro.layouts.columnar import ColumnarLayout

    cached = cache.get(export.segment)
    if cached is not None:
        return cached[1]
    shm = shared_memory.SharedMemory(name=export.segment)
    with contextlib.suppress(KeyError, ValueError):  # tracker internals vary
        resource_tracker.unregister(shm._name, "shared_memory")  # noqa: SLF001
    columns: dict[str, list] = {}
    numeric: dict[str, np.ndarray] = {}
    for ref in export.columns:
        arr = np.ndarray((ref.count,), dtype=np.dtype(ref.dtype), buffer=shm.buf, offset=ref.offset)
        columns[ref.field] = arr.tolist()
        numeric[ref.field] = arr if arr.dtype == np.float64 else arr.astype(np.float64)
    layout = ColumnarLayout(None, list(export.fields), columns)
    validity = np.ones(export.row_count, dtype=bool)
    for field, float_view in numeric.items():
        layout._numeric_arrays[field] = float_view  # noqa: SLF001
        layout._validity_arrays[field] = validity  # noqa: SLF001
    cache[export.segment] = (shm, layout)
    while len(cache) > _WORKER_LAYOUT_CACHE:
        evicted, _ = cache.pop(next(iter(cache)))
        # BufferError: numpy views still alive; GC unmaps the buffer later.
        with contextlib.suppress(BufferError):
            evicted.close()
    return layout


def _run_task(task: ScanTask, cache: dict) -> ScanTaskResult:
    """Execute one task against mapped shared memory (worker process)."""
    from repro.engine.operators import aggregate_batches
    from repro.engine.batch import rows_from_batches

    layout = _attach_layout(task.export, cache)
    ranges = {field: (low, high) for field, low, high in task.ranges}
    scan_started = time.perf_counter()
    batch = layout.range_filtered_batch(ranges, fields=list(task.fields), dedupe_records=False)
    scan_seconds = time.perf_counter() - scan_started
    batches = [batch] if batch.row_count else []
    operator_started = time.perf_counter()
    if task.aggregates or task.group_by:
        batches = [
            aggregate_batches(batches, list(task.aggregates), list(task.group_by))
        ]
    rows = rows_from_batches(batches)
    operator_seconds = time.perf_counter() - operator_started
    return ScanTaskResult(
        rows=rows,
        scanned_rows=layout.flattened_row_count,
        scan_seconds=scan_seconds,
        operator_seconds=operator_seconds,
    )


def _install_worker_faults(task: ScanTask, installed: tuple | None) -> tuple | None:
    """(Re)install the shipped fault plan when its signature changes."""
    signature = (task.fault_specs, task.fault_seed)
    if signature == installed:
        return installed
    if task.fault_specs:
        faults.install_spec(";".join(task.fault_specs), seed=task.fault_seed)
    else:
        faults.install(None)
    return signature


def _worker_main(conn) -> None:
    """Child-process loop: recv ScanTask, send ("ok"|"error", payload).

    Top-level (not a closure) so it survives spawn-mode pickling.  A
    ``server.worker`` fault firing here is *real* process death — the
    coordinator must observe a dead pipe, not a pickled exception.
    """
    cache: dict[str, tuple[shared_memory.SharedMemory, object]] = {}
    installed: tuple | None = None
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            break
        if task is None:
            break
        installed = _install_worker_faults(task, installed)
        injector = faults.injector_for("server.worker")
        if injector is not None and injector.fires():
            os._exit(_CRASH_EXIT_CODE)
        try:
            result = _run_task(task, cache)
        except ReCacheError as exc:
            conn.send(("error", exc))
        except BaseException as exc:  # pragma: no cover - defensive wrap
            conn.send(("error", RuntimeError(f"{type(exc).__name__}: {exc}")))
        else:
            conn.send(("ok", result))


# ===========================================================================
# Coordinator side
# ===========================================================================
class _WorkerHandle:
    """One worker process plus the coordinator end of its pipe."""

    __slots__ = ("process", "conn")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn


class ProcessExecutionPool:
    """A fixed-size pool of spawn-mode worker processes.

    Workers are spawned lazily (first use pays the cold start, idle pools
    cost nothing) and checked out one task at a time over a dedicated
    pipe, so a crashed worker poisons exactly the task it was running.
    ``spawn`` is used even where fork is available: the coordinator is
    heavily threaded and fork would duplicate locks mid-flight.
    """

    GUARDED_BY = {"_procs": "_lock", "_spawned": "_lock", "_closed": "_lock"}

    def __init__(self, worker_count: int, start_method: str = "spawn") -> None:
        self._ctx = get_context(start_method)
        self.worker_count = max(1, int(worker_count))
        self._lock = threading.Lock()
        self._idle: queue.Queue[_WorkerHandle] = queue.Queue()
        self._procs: dict[int, _WorkerHandle] = {}
        self._spawned = 0
        self._closed = False

    # -- task execution -------------------------------------------------------
    def execute(self, task: ScanTask) -> ScanTaskResult:
        """Run one task on any worker; raises WorkerCrashed on process death."""
        handle = self._checkout()
        try:
            status, payload = self._roundtrip(handle, task)
        except BaseException:
            # WorkerCrashed or a local protocol failure: the pipe can no
            # longer be trusted, retire the worker (next checkout respawns).
            self._discard(handle)
            raise
        self._idle.put(handle)
        if status == "error":
            raise payload
        return payload

    def _roundtrip(self, handle: _WorkerHandle, task: ScanTask) -> tuple[str, object]:
        process = handle.process
        try:
            handle.conn.send(task)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerCrashed(
                f"worker pid={process.pid} died before accepting a task "
                f"(exitcode {process.exitcode})"
            ) from exc
        while True:
            try:
                if handle.conn.poll(_IDLE_POLL_SECONDS):
                    return handle.conn.recv()
            except (EOFError, OSError) as exc:
                raise WorkerCrashed(
                    f"worker pid={process.pid} died mid-task (exitcode {process.exitcode})"
                ) from exc
            if not process.is_alive():
                # Final drain: the worker may have sent its answer and
                # exited between our poll and the liveness check.
                with contextlib.suppress(EOFError, OSError):
                    if handle.conn.poll(0):
                        return handle.conn.recv()
                raise WorkerCrashed(
                    f"worker pid={process.pid} died mid-task (exitcode {process.exitcode})"
                )

    # -- worker lifecycle -----------------------------------------------------
    def _checkout(self) -> _WorkerHandle:
        while True:
            with contextlib.suppress(queue.Empty):
                return self._idle.get_nowait()
            with self._lock:
                if self._closed:
                    raise WorkerCrashed("process pool is shut down")
                if self._spawned < self.worker_count:
                    self._spawned += 1
                    return self._spawn()
            try:
                return self._idle.get(timeout=_IDLE_POLL_SECONDS)
            except queue.Empty:
                continue

    def _spawn(self) -> _WorkerHandle:  # caller-holds: self._lock
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn,),
            daemon=True,
            name=f"recache-exec-{self._spawned}",
        )
        process.start()
        child_conn.close()
        handle = _WorkerHandle(process, parent_conn)
        self._procs[id(handle)] = handle
        return handle

    def _discard(self, handle: _WorkerHandle) -> None:
        """Retire a dead/poisoned worker; capacity is freed for a respawn."""
        with self._lock:
            self._procs.pop(id(handle), None)
            self._spawned -= 1
        with contextlib.suppress(OSError):
            handle.conn.close()
        if handle.process.is_alive():
            handle.process.terminate()
        handle.process.join(timeout=_JOIN_TIMEOUT_SECONDS)

    def shutdown(self, wait: bool = True) -> None:
        """Stop every worker; ``wait=False`` terminates instead of draining."""
        with self._lock:
            self._closed = True
            handles = list(self._procs.values())
            self._procs.clear()
        while True:
            try:
                self._idle.get_nowait()
            except queue.Empty:
                break
        for handle in handles:
            if wait:
                with contextlib.suppress(BrokenPipeError, OSError):
                    handle.conn.send(None)
            elif handle.process.is_alive():
                handle.process.terminate()
        for handle in handles:
            handle.process.join(timeout=_JOIN_TIMEOUT_SECONDS)
            if handle.process.is_alive():  # pragma: no cover - stuck worker
                handle.process.kill()
                handle.process.join(timeout=_JOIN_TIMEOUT_SECONDS)
            with contextlib.suppress(OSError):
                handle.conn.close()

    # -- introspection --------------------------------------------------------
    def live_worker_pids(self) -> list[int]:
        with self._lock:
            handles = list(self._procs.values())
        return [h.process.pid for h in handles if h.process.is_alive()]
