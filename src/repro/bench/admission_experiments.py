"""Cache admission experiments: Figures 12 and 13 of the paper.

Both figures use the 100-query select-project-join workload over TPC-H data
described in Section 6 and compare four configurations: no caching, lazy
caching (offsets only), eager caching (full tuples) and ReCache's reactive
admission with a configurable overhead threshold.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.config import ReCacheConfig
from repro.workloads.queries import spj_tpch_workload
from repro.workloads.runner import WorkloadRunner
from repro.bench.datasets import tpch_engine
from repro.bench.reporting import percent_reduction


def _admission_config(kind: str, threshold: float = 0.10) -> ReCacheConfig:
    """Configuration for one of the admission comparison points."""
    if kind == "none":
        return ReCacheConfig(caching_enabled=False)
    if kind in ("lazy", "eager"):
        return ReCacheConfig(admission=kind)
    if kind == "recache":
        return ReCacheConfig(admission="reactive", admission_threshold=threshold)
    raise ValueError(f"unknown admission configuration {kind!r}")


def _run_admission_workload(
    kind: str,
    threshold: float,
    num_queries: int,
    scale_factor: float,
    seed: int,
):
    config = _admission_config(kind, threshold)
    # Reduce the admission sample so that small bench datasets still leave a
    # post-sample region to extrapolate over.
    config.admission_sample_records = 100
    engine = tpch_engine(config, scale_factor=scale_factor)
    runner = WorkloadRunner(engine)
    queries = spj_tpch_workload(num_queries=num_queries, seed=seed)
    return runner.run(queries, label=f"admission-{kind}")


# ---------------------------------------------------------------------------
# Figure 12a: per-query caching overhead CDF for lazy / eager / ReCache
# ---------------------------------------------------------------------------
def figure12a_admission_overhead_cdf(
    num_queries: int = 40,
    scale_factor: float = 0.004,
    threshold: float = 0.10,
    seed: int = 13,
) -> dict:
    """Per-query caching overhead (ascending) for the three caching schemes."""
    overheads = {}
    means = {}
    for kind in ("lazy", "eager", "recache"):
        result = _run_admission_workload(kind, threshold, num_queries, scale_factor, seed)
        values = sorted(o * 100.0 for o in result.caching_overheads)
        overheads[kind] = values
        means[kind] = sum(values) / len(values) if values else 0.0
    return {
        "overheads_pct": overheads,
        "mean_overhead_pct": means,
        "recache_vs_eager_reduction_pct": percent_reduction(means["eager"], means["recache"]),
        "threshold": threshold,
    }


# ---------------------------------------------------------------------------
# Figure 12b: sensitivity to the switching threshold
# ---------------------------------------------------------------------------
def figure12b_admission_threshold_sweep(
    thresholds: Sequence[float] = (0.01, 0.10, 0.20, 0.50),
    num_queries: int = 30,
    scale_factor: float = 0.004,
    seed: int = 13,
) -> dict:
    """Mean caching overhead of ReCache for different switching thresholds."""
    lazy = _run_admission_workload("lazy", 0.10, num_queries, scale_factor, seed)
    rows = [
        {
            "config": "lazy",
            "threshold": None,
            "mean_overhead_pct": lazy.mean_caching_overhead() * 100.0,
            "total_time_s": lazy.total_time,
        }
    ]
    for threshold in thresholds:
        result = _run_admission_workload("recache", threshold, num_queries, scale_factor, seed)
        rows.append(
            {
                "config": f"recache(T={int(threshold * 100)}%)",
                "threshold": threshold,
                "mean_overhead_pct": result.mean_caching_overhead() * 100.0,
                "total_time_s": result.total_time,
            }
        )
    return {"rows": rows}


# ---------------------------------------------------------------------------
# Figure 13: cumulative execution time of the four configurations
# ---------------------------------------------------------------------------
def figure13_admission_cumulative(
    num_queries: int = 40,
    scale_factor: float = 0.004,
    threshold: float = 0.10,
    seed: int = 13,
) -> dict:
    """Cumulative execution time: no caching vs lazy vs eager vs ReCache."""
    series = {}
    totals = {}
    for kind in ("none", "lazy", "eager", "recache"):
        result = _run_admission_workload(kind, threshold, num_queries, scale_factor, seed)
        series[kind] = result.cumulative_times
        totals[kind] = result.total_time
    return {
        "series": series,
        "totals": totals,
        "recache_vs_none_reduction_pct": percent_reduction(totals["none"], totals["recache"]),
        "recache_vs_lazy_reduction_pct": percent_reduction(totals["lazy"], totals["recache"]),
        "recache_vs_eager_gap_pct": percent_reduction(totals["eager"], totals["recache"]),
    }
