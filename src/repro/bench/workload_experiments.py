"""Full-workload experiments on the Symantec- and Yelp-style datasets.

Covers Figure 10 (cumulative execution time for workloads dominated by
non-nested vs nested attribute accesses), Figure 11 (sensitivity of the layout
selection gains to the fraction of nested-attribute and JSON queries) and
Figure 15 (the end-to-end comparison of the four cache configurations under a
limited memory budget).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.config import ReCacheConfig
from repro.workloads.queries import symantec_mixed_workload, yelp_spa_workload
from repro.workloads.runner import WorkloadRunner
from repro.bench.datasets import symantec_engine, yelp_engine
from repro.bench.reporting import percent_reduction

#: the three layout configurations compared in Figures 10 and 11
_LAYOUT_CONFIGS = {
    "columnar": {"layout_selection": False, "default_nested_layout": "columnar"},
    "parquet": {"layout_selection": False, "default_nested_layout": "parquet"},
    "recache": {"layout_selection": True, "default_nested_layout": "parquet"},
}


def _layout_config(name: str, cache_size: int | None = None, eviction: str = "recache") -> ReCacheConfig:
    options = _LAYOUT_CONFIGS[name]
    return ReCacheConfig(
        cache_size_limit=cache_size,
        eviction_policy=eviction,
        admission="eager",
        **options,
    )


# ---------------------------------------------------------------------------
# Figure 10: cumulative execution time on the Symantec JSON data
# ---------------------------------------------------------------------------
def figure10_symantec_cumulative(
    nested_fraction: float = 0.1,
    num_queries: int = 150,
    json_records: int = 1200,
    seed: int = 17,
) -> dict:
    """Cumulative execution time for columnar / Parquet / ReCache layouts.

    ``nested_fraction=0.1`` reproduces Figure 10a, ``0.9`` Figure 10b.  The
    cache is unlimited and starts empty, so cache-creation cost is included.
    """
    queries = symantec_mixed_workload(
        num_queries=num_queries,
        nested_fraction=nested_fraction,
        json_fraction=1.0,
        join_fraction=0.0,
        seed=seed,
    )
    series = {}
    totals = {}
    for name in _LAYOUT_CONFIGS:
        engine = symantec_engine(_layout_config(name), json_records=json_records)
        result = WorkloadRunner(engine).run(queries, label=f"fig10-{name}")
        series[name] = result.cumulative_times
        totals[name] = result.total_time
    return {
        "nested_fraction": nested_fraction,
        "series": series,
        "totals": totals,
        "recache_vs_columnar_reduction_pct": percent_reduction(
            totals["columnar"], totals["recache"]
        ),
        "recache_vs_parquet_reduction_pct": percent_reduction(
            totals["parquet"], totals["recache"]
        ),
    }


# ---------------------------------------------------------------------------
# Figure 11: sensitivity analysis
# ---------------------------------------------------------------------------
def figure11a_sensitivity_nested_symantec(
    nested_percentages: Sequence[int] = (0, 25, 50, 75, 100),
    num_queries: int = 80,
    json_records: int = 1000,
    seed: int = 17,
) -> list[dict]:
    """% execution-time reduction of ReCache vs the static layouts (Symantec).

    The workload mixes SPA and SPJ queries over the JSON and CSV components
    (90% JSON, 10% joins), varying the share of queries that touch nested
    attributes.
    """
    rows = []
    for nested_pct in nested_percentages:
        queries = symantec_mixed_workload(
            num_queries=num_queries,
            nested_fraction=nested_pct / 100.0,
            json_fraction=0.9,
            join_fraction=0.1,
            seed=seed,
        )
        totals = {}
        for name in _LAYOUT_CONFIGS:
            engine = symantec_engine(_layout_config(name), json_records=json_records)
            totals[name] = WorkloadRunner(engine).run(queries, label=f"fig11a-{name}").total_time
        rows.append(
            {
                "nested_pct": nested_pct,
                "reduction_vs_columnar_pct": percent_reduction(totals["columnar"], totals["recache"]),
                "reduction_vs_parquet_pct": percent_reduction(totals["parquet"], totals["recache"]),
            }
        )
    return rows


def figure11b_sensitivity_nested_yelp(
    nested_percentages: Sequence[int] = (0, 25, 50, 75, 100),
    num_queries: int = 80,
    total_records: int = 1200,
    seed: int = 19,
) -> list[dict]:
    """Same sweep as Figure 11a but over the Yelp-style dataset."""
    rows = []
    for nested_pct in nested_percentages:
        queries = yelp_spa_workload(
            num_queries=num_queries, nested_fraction=nested_pct / 100.0, seed=seed
        )
        totals = {}
        for name in _LAYOUT_CONFIGS:
            engine = yelp_engine(_layout_config(name), total_records=total_records)
            totals[name] = WorkloadRunner(engine).run(queries, label=f"fig11b-{name}").total_time
        rows.append(
            {
                "nested_pct": nested_pct,
                "reduction_vs_columnar_pct": percent_reduction(totals["columnar"], totals["recache"]),
                "reduction_vs_parquet_pct": percent_reduction(totals["parquet"], totals["recache"]),
            }
        )
    return rows


def figure11c_sensitivity_json_fraction(
    json_percentages: Sequence[int] = (0, 25, 50, 75, 100),
    num_queries: int = 80,
    json_records: int = 1000,
    seed: int = 17,
) -> list[dict]:
    """% time reduction as the share of queries over JSON (vs CSV) grows."""
    rows = []
    for json_pct in json_percentages:
        queries = symantec_mixed_workload(
            num_queries=num_queries,
            nested_fraction=0.5,
            json_fraction=json_pct / 100.0,
            join_fraction=0.0,
            seed=seed,
        )
        totals = {}
        for name in _LAYOUT_CONFIGS:
            engine = symantec_engine(_layout_config(name), json_records=json_records)
            totals[name] = WorkloadRunner(engine).run(queries, label=f"fig11c-{name}").total_time
        rows.append(
            {
                "json_pct": json_pct,
                "reduction_vs_columnar_pct": percent_reduction(totals["columnar"], totals["recache"]),
                "reduction_vs_parquet_pct": percent_reduction(totals["parquet"], totals["recache"]),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 15: the four cache configurations under a limited memory budget
# ---------------------------------------------------------------------------
_FIG15_CONFIGS = {
    "columnar_lru": {
        "layout_selection": False,
        "default_nested_layout": "columnar",
        "eviction_policy": "lru",
    },
    "columnar_greedy": {
        "layout_selection": False,
        "default_nested_layout": "columnar",
        "eviction_policy": "recache",
    },
    "parquet_greedy": {
        "layout_selection": False,
        "default_nested_layout": "parquet",
        "eviction_policy": "recache",
    },
    "recache": {
        "layout_selection": True,
        "default_nested_layout": "parquet",
        "eviction_policy": "recache",
    },
}


def _figure15_run(queries, engine_builder, cache_size: int) -> dict:
    series = {}
    totals = {}
    tails = {}
    for name, options in _FIG15_CONFIGS.items():
        config = ReCacheConfig(cache_size_limit=cache_size, admission="eager", **options)
        engine = engine_builder(config)
        result = WorkloadRunner(engine).run(queries, label=f"fig15-{name}")
        series[name] = result.cumulative_times
        totals[name] = result.total_time
        tails[name] = result.tail_total_time(len(queries) // 2)
    return {
        "series": series,
        "totals": totals,
        "second_half_totals": tails,
        "recache_vs_parquet_reduction_pct": percent_reduction(
            totals["parquet_greedy"], totals["recache"]
        ),
        "recache_vs_columnar_greedy_reduction_pct": percent_reduction(
            totals["columnar_greedy"], totals["recache"]
        ),
        "recache_vs_columnar_lru_reduction_pct": percent_reduction(
            totals["columnar_lru"], totals["recache"]
        ),
        "columnar_lru_vs_columnar_greedy_reduction_pct": percent_reduction(
            totals["columnar_lru"], totals["columnar_greedy"]
        ),
    }


def figure15a_symantec_diverse(
    num_queries: int = 200,
    json_records: int = 1200,
    csv_records: int = 4000,
    cache_size: int = 600_000,
    seed: int = 17,
) -> dict:
    """Figure 15a: SPA/SPJ queries over the Symantec CSV+JSON data, limited cache."""
    queries = symantec_mixed_workload(
        num_queries=num_queries,
        nested_fraction=0.5,
        json_fraction=0.8,
        join_fraction=0.1,
        seed=seed,
    )
    return _figure15_run(
        queries,
        lambda config: symantec_engine(config, json_records=json_records, csv_records=csv_records),
        cache_size,
    )


def figure15b_yelp_diverse(
    num_queries: int = 200,
    total_records: int = 1500,
    cache_size: int = 800_000,
    seed: int = 19,
) -> dict:
    """Figure 15b: SPA queries over the Yelp-style JSON data, limited cache."""
    queries = yelp_spa_workload(num_queries=num_queries, nested_fraction=0.5, seed=seed)
    return _figure15_run(
        queries,
        lambda config: yelp_engine(config, total_records=total_records),
        cache_size,
    )
