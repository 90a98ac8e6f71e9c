"""Ablation benches for the design choices called out in DESIGN.md."""

from repro.bench.experiments import (
    ablation_admission_estimator,
    ablation_benefit_recompute,
    ablation_eviction_order,
)


def test_ablation_benefit_recompute(run_experiment):
    result = run_experiment(
        ablation_benefit_recompute, cache_size=400_000, num_queries=15, scale_factor=0.002
    )
    print(
        f"recompute={result['recompute_total_s']:.2f}s frozen={result['frozen_total_s']:.2f}s "
        f"(frozen slowdown {result['frozen_slowdown_pct']:+.1f}%)"
    )
    assert result["recompute_total_s"] > 0 and result["frozen_total_s"] > 0


def test_ablation_eviction_order(run_experiment):
    result = run_experiment(
        ablation_eviction_order, cache_size=400_000, num_queries=15, scale_factor=0.002
    )
    print(
        f"size-aware: {result['size_aware_total_s']:.2f}s / {result['size_aware_evictions']} evictions; "
        f"plain: {result['plain_total_s']:.2f}s / {result['plain_evictions']} evictions"
    )
    # The size-aware heuristic exists to evict fewer items for the same space.
    assert result["size_aware_evictions"] <= result["plain_evictions"]


def test_ablation_admission_estimator(run_experiment):
    result = run_experiment(
        ablation_admission_estimator, num_queries=15, scale_factor=0.002
    )
    for name, stats in result.items():
        print(
            f"{name}: mean_overhead={stats['mean_overhead_pct']:.1f}% "
            f"lazy={stats['lazy_admissions']} eager={stats['eager_admissions']} "
            f"total={stats['total_time_s']:.2f}s"
        )
    assert set(result) == {"extrapolated", "naive"}

