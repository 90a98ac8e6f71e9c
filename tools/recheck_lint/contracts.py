"""Declared containment contracts and hot-path roots for the interprocedural rules.

The *declarations* live in one central registry so the ``raise-flow``/
``hotpath`` checkers and reviewers all read the same source of truth.

``RAISE_CONTRACTS`` maps a function (``"Class.method"`` or a bare top-level
function name) to the complete set of :class:`~repro.core.errors.ReCacheError`
subclasses it is allowed to leak to its callers.  The raise-flow rule infers
each function's transitive may-raise set over the project call graph and flags
any contracted function whose inferred set exceeds its declaration.  The table
encodes the failure-containment architecture directly:

* the serving boundary (``EngineServer.submit``/``submit_batch``) leaks only
  the typed client failure ``DeadlineExceeded`` (no load shedding: a full
  queue blocks the submitter instead of rejecting it);
* the retry envelope (``QueryEngine.execute`` and everything it wraps) may
  leak ``TransientScanError`` — but nothing *above* the envelope may;
* ``CorruptedCacheError`` never appears in any contract: the quarantine layer
  (``_quarantine_entry`` + degraded re-scan in the executor, ``quarantine``
  inside the cache manager's layout-switch path) must consume it.

``HOT_PATH_ROOTS`` names the vectorized entry points of the batched pipeline;
the hotpath rule walks the call graph from these roots and flags per-row
Python work in anything reachable (see :mod:`.hotpath`).

Modules outside the core (the lint self-test corpus) can extend either table
with module-level literals, merged per-module by the checkers::

    RECHECK_RAISE_CONTRACTS = {"MiniServer.submit": ["QueryRejected"]}
    RECHECK_HOTPATH_ROOTS = ["corpus_batch_root"]
"""

from __future__ import annotations

#: function ("Class.method" or top-level name) -> ReCacheError subclasses it
#: may leak; anything else inferred on the function is a raise-flow violation.
RAISE_CONTRACTS: dict[str, frozenset[str]] = {
    # -- serving boundary: only typed client failures cross it ---------------
    "EngineServer.submit": frozenset({"DeadlineExceeded"}),
    "EngineServer.submit_batch": frozenset({"DeadlineExceeded"}),
    # The future resolver settles exceptions into futures; it leaks nothing.
    "EngineServer._resolve_execution": frozenset(),
    # Worker threads re-raise into the pool *after* failing the execution's
    # futures (the pool swallows); the injected crash class is part of that.
    "EngineServer._serve": frozenset(
        {"WorkerCrashed", "TransientScanError", "DeadlineExceeded"}
    ),
    # -- retry envelope: TransientScanError stops here or is typed ----------
    # WorkerCrashed joins the set with process-pool execution: a worker
    # process dying mid-offload surfaces as the typed crash error (budget
    # conserved; the server fails the affected futures, never strands them).
    "QueryEngine.execute": frozenset(
        {"TransientScanError", "DeadlineExceeded", "WorkerCrashed"}
    ),
    # -- executor: quarantine consumes corruption before the plan returns ---
    "execute_plan": frozenset({"TransientScanError", "DeadlineExceeded"}),
    # -- cache manager: a corrupt cached layout is quarantined, not raised --
    "ReCache.record_reuse": frozenset(),
    "ReCache.upgrade_lazy": frozenset(),
}

#: Vectorized entry points of the batched pipeline.  A bare name matches
#: every project function/method with that name (``scan_batches`` is a root
#: on each layout and format plugin); a dotted name matches one method.
HOT_PATH_ROOTS: tuple[str, ...] = (
    "scan_batches",
    "range_filtered_batch",
    "filter_batches",
    "project_batches",
    "hash_join_batches",
    "aggregate_batches",
    "compile_batch_predicate",
    # the batched executor's per-node routing function
    "_execute_batches",
    # the cold path: the materializer's loop body and the lazy re-read
    "_materialize_batch",
    "read_record_batches",
)
