"""Eviction experiments: Figure 14 plus the design-choice ablations.

Figure 14 compares ReCache's cost-based Greedy-Dual eviction with LRU, Proteus'
JSON>CSV heuristic, the Vectorwise and MonetDB recyclers, and two offline
(clairvoyant) algorithms over the heterogeneous TPC-H workload (the lineitem
table is served from JSON to add cost asymmetry).  The ablation experiments
quantify three design choices: recomputing the benefit metric on every eviction
pass, the size-descending eviction order, and the admission extrapolation.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.config import ReCacheConfig
from repro.core.eviction import ReCacheGreedyDualPolicy
from repro.workloads.queries import spj_tpch_workload
from repro.workloads.runner import WorkloadRunner
from repro.bench.datasets import tpch_engine
from repro.bench.reporting import percent_reduction

#: the policies compared in Figure 14, in plot order
FIGURE14_POLICIES = (
    "recache",
    "monetdb",
    "vectorwise",
    "lru",
    "proteus-lru",
    "offline-farthest",
    "offline-log-optimal",
)


def _eviction_workload(num_queries: int, seed: int):
    """The heterogeneous SPJ workload: lineitem served from JSON (Section 6.3)."""
    return spj_tpch_workload(
        num_queries=num_queries, seed=seed, source_names={"lineitem": "lineitem_json"}
    )


def _run_eviction_config(
    policy: str,
    cache_size: int | None,
    num_queries: int,
    scale_factor: float,
    seed: int,
    recompute_benefit: bool = True,
    size_aware: bool = True,
):
    config = ReCacheConfig(
        cache_size_limit=cache_size,
        eviction_policy=policy,
        admission="eager",
        recompute_benefit=recompute_benefit,
    )
    engine = tpch_engine(config, scale_factor=scale_factor, lineitem_json=True)
    if policy == "recache" and not size_aware:
        engine.recache.policy = ReCacheGreedyDualPolicy(
            recompute_benefit=recompute_benefit, size_aware=False
        )
    runner = WorkloadRunner(engine)
    queries = _eviction_workload(num_queries, seed)
    result = runner.run(queries, label=f"evict-{policy}-{cache_size}")
    return result, engine


# ---------------------------------------------------------------------------
# Figure 14: workload time vs cache size for each policy
# ---------------------------------------------------------------------------
def figure14_eviction_policies(
    cache_sizes: Sequence[int] = (200_000, 400_000, 800_000, 1_600_000),
    policies: Sequence[str] = FIGURE14_POLICIES,
    num_queries: int = 30,
    scale_factor: float = 0.003,
    seed: int = 13,
) -> dict:
    """Total workload time per (policy, cache size), plus the unlimited baseline."""
    unlimited, _ = _run_eviction_config(
        "recache", None, num_queries, scale_factor, seed
    )
    rows = []
    for cache_size in cache_sizes:
        row: dict = {"cache_size": cache_size, "unlimited": unlimited.total_time}
        for policy in policies:
            result, engine = _run_eviction_config(
                policy, cache_size, num_queries, scale_factor, seed
            )
            row[policy] = result.total_time
            row[f"{policy}_evictions"] = engine.cache_stats.evictions
        row["recache_vs_lru_reduction_pct"] = percent_reduction(row["lru"], row["recache"])
        rows.append(row)
    return {"rows": rows, "unlimited_total": unlimited.total_time}


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------
def ablation_benefit_recompute(
    cache_size: int = 400_000,
    num_queries: int = 30,
    scale_factor: float = 0.003,
    seed: int = 13,
) -> dict:
    """Recomputing the benefit metric each eviction pass vs freezing it."""
    fresh, _ = _run_eviction_config("recache", cache_size, num_queries, scale_factor, seed)
    frozen, _ = _run_eviction_config(
        "recache", cache_size, num_queries, scale_factor, seed, recompute_benefit=False
    )
    return {
        "recompute_total_s": fresh.total_time,
        "frozen_total_s": frozen.total_time,
        "frozen_slowdown_pct": percent_reduction(frozen.total_time, fresh.total_time),
    }


def ablation_eviction_order(
    cache_size: int = 400_000,
    num_queries: int = 30,
    scale_factor: float = 0.003,
    seed: int = 13,
) -> dict:
    """Size-descending phase-2 eviction vs plain ascending-H(p) eviction."""
    size_aware, size_aware_engine = _run_eviction_config(
        "recache", cache_size, num_queries, scale_factor, seed, size_aware=True
    )
    plain, plain_engine = _run_eviction_config(
        "recache", cache_size, num_queries, scale_factor, seed, size_aware=False
    )
    return {
        "size_aware_total_s": size_aware.total_time,
        "plain_total_s": plain.total_time,
        "size_aware_evictions": size_aware_engine.cache_stats.evictions,
        "plain_evictions": plain_engine.cache_stats.evictions,
    }


def ablation_admission_estimator(
    num_queries: int = 25,
    scale_factor: float = 0.004,
    seed: int = 13,
) -> dict:
    """The to1/tc1..to2/tc2 extrapolation (``"reactive"``) vs the naive
    sample-local estimator (``"sample-local"``)."""
    results = {}
    for label, policy in (("extrapolated", "reactive"), ("naive", "sample-local")):
        config = ReCacheConfig(admission=policy, admission_sample_records=100)
        engine = tpch_engine(config, scale_factor=scale_factor)
        runner = WorkloadRunner(engine)
        run = runner.run(spj_tpch_workload(num_queries=num_queries, seed=seed), label=label)
        results[label] = {
            "mean_overhead_pct": run.mean_caching_overhead() * 100.0,
            "lazy_admissions": engine.cache_stats.admissions_lazy,
            "eager_admissions": engine.cache_stats.admissions_eager,
            "total_time_s": run.total_time,
        }
    return results

