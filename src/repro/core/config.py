"""Configuration knobs of the ReCache cache manager.

Every field is read by a paper figure, a behaviour test or the README's
configuration table: the admission policy of Figures 12-13 and the
extrapolation ablation (``admission``), the threshold sweep of Figure 12b,
the layout configurations of Figures 10, 11 and 15, and the policy
comparison of Figure 14.  A mechanism nobody varies is a module constant
beside the code that uses it, not a field here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.core.admission import validate_admission_policy


#: execution strategies accepted by the ``execution_mode`` knobs
EXECUTION_MODES = ("threads", "processes")


def validate_execution_mode(value: "str | None", allow_none: bool = False) -> None:
    """Shared membership check for every ``execution_mode`` entry point."""
    if value is None and allow_none:
        return
    if value not in EXECUTION_MODES:
        expected = " or ".join(repr(mode) for mode in EXECUTION_MODES)
        if allow_none:
            expected = f"None, {expected}"
        raise ValueError(f"execution_mode must be {expected}, got {value!r}")


#: eviction policy identifiers accepted by :func:`repro.core.policies.make_policy`
EVICTION_POLICIES = (
    "recache",
    "lru",
    "lfu",
    "proteus-lru",
    "vectorwise",
    "monetdb",
    "offline-farthest",
    "offline-log-optimal",
)


@dataclass
class ReCacheConfig:
    """Tunable parameters of a :class:`~repro.core.cache_manager.ReCache` instance."""

    #: cache capacity in bytes; ``None`` means unlimited (used to isolate the
    #: layout-selection experiments from eviction effects).
    cache_size_limit: int | None = None

    #: eviction policy name; see :data:`EVICTION_POLICIES`.
    eviction_policy: str = "recache"

    #: maximum fraction of query time the caching work may add before the
    #: admission controller downgrades to lazy caching (the paper's default
    #: threshold is 10%).
    admission_threshold: float = 0.10

    #: number of records cached both eagerly and lazily at the start of a scan
    #: before the admission decision is made.
    admission_sample_records: int = 200

    #: admission policy, one of :data:`~repro.core.admission.ADMISSION_POLICIES`:
    #: ``"reactive"`` samples and extrapolates ``to1/tc1..to2/tc2`` (the
    #: paper's), ``"sample-local"`` samples with the naive estimator (the
    #: extrapolation ablation), ``"eager"`` / ``"lazy"`` are the "Eager
    #: Caching" / "Lazy Caching" baselines (lazy entries never upgrade).
    admission: str = "reactive"

    #: disable caching entirely (the "No Caching" baseline of Figure 13).
    caching_enabled: bool = True

    #: default layout for caches of nested data (the paper defaults to Parquet
    #: because it is cheaper to build, Figure 6).
    default_nested_layout: str = "parquet"

    #: default layout for caches of flat relational data.
    default_flat_layout: str = "columnar"

    #: if False the layout is never switched after creation (the static
    #: "Parquet" / "Rel. Columnar" baselines of Figures 9, 10 and 15).
    layout_selection: bool = True

    #: recompute the benefit metric from fresh measurements at every eviction
    #: pass (Section 5.1 reports up to 6% regression when this is disabled).
    recompute_benefit: bool = True

    #: number of records per :class:`~repro.engine.batch.RecordBatch` produced
    #: by scans.
    batch_size: int = 1024

    #: worker threads of the :class:`~repro.engine.server.EngineServer`
    #: thread pool (the concurrent serving layer's degree of parallelism).
    max_workers: int = 4

    #: how cache-hit scans are executed: ``"threads"`` (the default) runs
    #: everything in-process; ``"processes"`` offloads eligible flat
    #: columnar cache hits to a spawn-mode worker-process pool mapping the
    #: columns from shared memory (escaping the GIL), with automatic
    #: fallback to the in-process path for everything else.  Overridable per
    #: query via ``Query.execution_mode`` or ``QueryEngine.execute(...,
    #: execution_mode=...)``.  Defaults from the ``RECACHE_EXECUTION_MODE``
    #: environment variable so CI can re-run whole suites under the pool.
    execution_mode: str = field(
        default_factory=lambda: os.environ.get("RECACHE_EXECUTION_MODE", "threads")
    )

    #: worker processes of the process-pool execution path; ``None`` (the
    #: default) follows ``max_workers``.
    process_workers: int | None = None

    #: fault-injection plan spec (see :mod:`repro.faults.plan` for the
    #: grammar, e.g. ``"scan.raw:io_error:rate=0.05"``).  Installed
    #: process-wide by :class:`~repro.engine.session.QueryEngine` on
    #: construction; ``None`` (the default) injects nothing and the fault
    #: hooks cost one ``None`` check per scan.
    faults: str | None = None

    #: default per-query deadline in seconds (wall clock from submission to
    #: the server, else from ``execute``); ``None`` disables deadlines.
    #: Overridable per query via ``Query.deadline``.  An elapsed deadline
    #: surfaces as a typed :class:`~repro.core.errors.DeadlineExceeded`.
    default_deadline: float | None = None

    #: bounded retry for transient scan faults: how many times
    #: ``QueryEngine.execute`` re-runs a query after a
    #: :class:`~repro.core.errors.TransientScanError` before letting it
    #: propagate (with jittered exponential backoff from
    #: :data:`~repro.engine.session.SCAN_RETRY_BACKOFF`).
    scan_retry_limit: int = 2

    #: consecutive per-source faults before the circuit breaker opens and
    #: queries against that source route around the cache entirely.
    breaker_failure_threshold: int = 3

    #: seconds an open breaker waits before half-opening for a probe query.
    breaker_cooldown: float = 30.0

    #: eviction-pressure load shedding: when the server's submission queue
    #: is full AND the fraction of the cache budget evicted within the
    #: last ``SHED_PRESSURE_WINDOW`` (64) queries reaches this threshold, new
    #: submissions are rejected with a typed
    #: :class:`~repro.core.errors.QueryRejected` instead of queueing (``None``
    #: disables shedding — the default keeps the pre-existing
    #: block-until-capacity behaviour).
    shed_pressure_threshold: float | None = None

    #: seed of the fault plan installed from ``faults`` (nothing else reads
    #: it).
    seed: int = 7

    def __post_init__(self) -> None:
        if self.eviction_policy not in EVICTION_POLICIES:
            raise ValueError(
                f"unknown eviction policy {self.eviction_policy!r}; "
                f"expected one of {EVICTION_POLICIES}"
            )
        validate_admission_policy(self.admission)
        if not 0.0 < self.admission_threshold <= 1.0:
            raise ValueError("admission_threshold must be in (0, 1]")
        if self.cache_size_limit is not None and self.cache_size_limit <= 0:
            raise ValueError("cache_size_limit must be positive or None")
        if self.default_nested_layout not in ("parquet", "columnar", "row"):
            raise ValueError(f"unknown layout {self.default_nested_layout!r}")
        if self.default_flat_layout not in ("columnar", "row"):
            raise ValueError(f"unknown flat layout {self.default_flat_layout!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        validate_execution_mode(self.execution_mode)
        if self.process_workers is not None and self.process_workers < 1:
            raise ValueError("process_workers must be >= 1 or None")
        if self.default_deadline is not None and self.default_deadline <= 0:
            raise ValueError("default_deadline must be positive or None")
        if self.scan_retry_limit < 0:
            raise ValueError("scan_retry_limit must be >= 0")
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be >= 1")
        if self.breaker_cooldown < 0:
            raise ValueError("breaker_cooldown must be >= 0")
        if self.shed_pressure_threshold is not None and self.shed_pressure_threshold <= 0:
            raise ValueError("shed_pressure_threshold must be positive or None")

    @classmethod
    def unlimited(cls, **overrides) -> "ReCacheConfig":
        """A configuration with no capacity limit (layout-selection experiments)."""
        return cls(cache_size_limit=None, **overrides)

    @classmethod
    def baseline_lru_columnar(cls, cache_size_limit: int | None = None) -> "ReCacheConfig":
        """The Columnar/LRU baseline configuration of Figure 15."""
        return cls(
            cache_size_limit=cache_size_limit,
            eviction_policy="lru",
            layout_selection=False,
            default_nested_layout="columnar",
            admission="eager",
        )

    @classmethod
    def baseline_parquet_greedy(cls, cache_size_limit: int | None = None) -> "ReCacheConfig":
        """The Parquet/Greedy baseline configuration of Figure 15."""
        return cls(
            cache_size_limit=cache_size_limit,
            eviction_policy="recache",
            layout_selection=False,
            default_nested_layout="parquet",
            admission="eager",
        )
