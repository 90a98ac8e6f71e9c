"""Configuration knobs of the ReCache cache manager.

Every configurable behaviour from the paper is exposed here so that the
benchmarks can turn individual mechanisms on and off (the four configurations
of Figure 15, the threshold sweep of Figure 12b, the policy comparison of
Figure 14, and the ablation benches).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field


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

    #: if False, every cache is built eagerly (the "Eager Caching" baseline).
    adaptive_admission: bool = True

    #: use the paper's to1/tc1..to2/tc2 extrapolation when estimating caching
    #: overhead; False falls back to the naive sample-local ratio (ablation).
    admission_extrapolation: bool = True

    #: if True, only record offsets are ever cached (the "Lazy Caching" baseline).
    always_lazy: bool = False

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

    #: fraction of records on which timing system calls are issued
    #: (Section 5.1 recommends < 1%).
    timing_sample_rate: float = 0.01

    #: enable reuse of subsuming caches for range predicates (Section 3.3).
    enable_subsumption: bool = True

    #: look up subsuming caches with the R-tree; False falls back to a linear
    #: scan over cached predicates (ablation).
    use_rtree_index: bool = True

    #: recompute the benefit metric from fresh measurements at every eviction
    #: pass (Section 5.1 reports up to 6% regression when this is disabled).
    recompute_benefit: bool = True

    #: upgrade a lazy cache to an eager one the first time it is reused.
    upgrade_lazy_on_reuse: bool = True

    #: number of records per :class:`~repro.engine.batch.RecordBatch` produced
    #: by scans.
    batch_size: int = 1024

    #: number of independently locked cache shards; 1 keeps the classic
    #: single-``ReCache`` behaviour, >1 makes the engine build a
    #: :class:`~repro.core.sharded_cache.ShardedReCache` so concurrent queries
    #: stop serializing on one lock.
    shard_count: int = 1

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

    #: backpressure bound of the server's submission queue: a ``submit`` /
    #: ``submit_batch`` call blocks while this many queries are already
    #: pending (queued or executing).  A batch is admitted atomically once
    #: the depth falls below the bound, so the queue may transiently exceed
    #: it by one batch.
    max_pending_queries: int = 256

    #: fault-injection plan spec (see :mod:`repro.faults.plan` for the
    #: grammar, e.g. ``"scan.raw:io_error:rate=0.05"``).  Installed
    #: process-wide by :class:`~repro.engine.session.QueryEngine` on
    #: construction; ``None`` (the default) injects nothing and the fault
    #: hooks cost one ``None`` check per scan.
    faults: str | None = None

    #: default per-query deadline in seconds (wall clock from submission /
    #: execute start); ``None`` disables deadlines.  Overridable per query
    #: via ``Query.deadline``.  An elapsed deadline surfaces as a typed
    #: :class:`~repro.core.errors.DeadlineExceeded`.
    default_deadline: float | None = None

    #: bounded retry for transient scan faults: how many times
    #: ``QueryEngine.execute`` re-runs a query after a
    #: :class:`~repro.core.errors.TransientScanError` before letting it
    #: propagate.
    scan_retry_limit: int = 2

    #: base of the jittered exponential backoff between scan retries, in
    #: seconds (attempt ``n`` sleeps ``backoff * 2^n * uniform(0.5, 1.0)``).
    scan_retry_backoff: float = 0.005

    #: consecutive per-source faults before the circuit breaker opens and
    #: queries against that source route around the cache entirely.
    breaker_failure_threshold: int = 3

    #: seconds an open breaker waits before half-opening for a probe query.
    breaker_cooldown: float = 30.0

    #: eviction-pressure load shedding: when the server's submission queue
    #: is full AND the fraction of the cache budget evicted within the
    #: recent query window reaches this threshold, new submissions are
    #: rejected with a typed :class:`~repro.core.errors.QueryRejected`
    #: instead of queueing (``None`` disables shedding — the default keeps
    #: the pre-existing block-until-capacity behaviour).
    shed_pressure_threshold: float | None = None

    #: number of recent queries (by cache sequence) over which eviction
    #: pressure is measured.
    shed_pressure_window: int = 64

    #: seed of the fault plan installed from ``faults`` (nothing else reads
    #: it: timers draw from their own generator).
    seed: int = 7

    def __post_init__(self) -> None:
        if self.eviction_policy not in EVICTION_POLICIES:
            raise ValueError(
                f"unknown eviction policy {self.eviction_policy!r}; "
                f"expected one of {EVICTION_POLICIES}"
            )
        if not 0.0 < self.admission_threshold <= 1.0:
            raise ValueError("admission_threshold must be in (0, 1]")
        if self.cache_size_limit is not None and self.cache_size_limit <= 0:
            raise ValueError("cache_size_limit must be positive or None")
        if self.default_nested_layout not in ("parquet", "columnar", "row"):
            raise ValueError(f"unknown layout {self.default_nested_layout!r}")
        if self.default_flat_layout not in ("columnar", "row"):
            raise ValueError(f"unknown flat layout {self.default_flat_layout!r}")
        if not 0.0 < self.timing_sample_rate <= 1.0:
            raise ValueError("timing_sample_rate must be in (0, 1]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        validate_execution_mode(self.execution_mode)
        if self.process_workers is not None and self.process_workers < 1:
            raise ValueError("process_workers must be >= 1 or None")
        if self.max_pending_queries < 1:
            raise ValueError("max_pending_queries must be >= 1")
        if self.default_deadline is not None and self.default_deadline <= 0:
            raise ValueError("default_deadline must be positive or None")
        if self.scan_retry_limit < 0:
            raise ValueError("scan_retry_limit must be >= 0")
        if self.scan_retry_backoff < 0:
            raise ValueError("scan_retry_backoff must be >= 0")
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be >= 1")
        if self.breaker_cooldown < 0:
            raise ValueError("breaker_cooldown must be >= 0")
        if self.shed_pressure_threshold is not None and self.shed_pressure_threshold <= 0:
            raise ValueError("shed_pressure_threshold must be positive or None")
        if self.shed_pressure_window < 1:
            raise ValueError("shed_pressure_window must be >= 1")

    def with_overrides(self, **overrides) -> "ReCacheConfig":
        """A copy of this configuration with the given fields replaced."""
        return dataclasses.replace(self, **overrides)

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
            adaptive_admission=False,
        )

    @classmethod
    def baseline_parquet_greedy(cls, cache_size_limit: int | None = None) -> "ReCacheConfig":
        """The Parquet/Greedy baseline configuration of Figure 15."""
        return cls(
            cache_size_limit=cache_size_limit,
            eviction_policy="recache",
            layout_selection=False,
            default_nested_layout="parquet",
            adaptive_admission=False,
        )

    @classmethod
    def baseline_columnar_greedy(cls, cache_size_limit: int | None = None) -> "ReCacheConfig":
        """The Columnar/Greedy baseline configuration of Figure 15."""
        return cls(
            cache_size_limit=cache_size_limit,
            eviction_policy="recache",
            layout_selection=False,
            default_nested_layout="columnar",
            adaptive_admission=False,
        )

    @classmethod
    def full_recache(cls, cache_size_limit: int | None = None, **overrides) -> "ReCacheConfig":
        """The full ReCache configuration (all reactive mechanisms enabled)."""
        return cls(cache_size_limit=cache_size_limit, **overrides)
