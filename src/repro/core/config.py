"""Configuration knobs of the ReCache cache manager.

A field earns its place by one of two rules:

* two callers outside the tests need different values — the admission policy
  of Figures 12-13 and the extrapolation ablation (``admission``), the
  threshold sweep of Figure 12b and its sample size, the "No Caching"
  baseline, the nested layout and layout selection of Figures 10, 11 and 15,
  the policy comparison of Figure 14 and the benefit-recompute ablation; or
* it is a deployment or safety setting an operator sets for the machine or
  the service level: capacity, batch size, workers and execution mode.

A value only a test changes, or a mechanism nobody varies, is a module
constant beside the code that uses it, not a field here.
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
        if self.default_nested_layout not in ("parquet", "columnar"):
            raise ValueError(f"unknown layout {self.default_nested_layout!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        validate_execution_mode(self.execution_mode)
