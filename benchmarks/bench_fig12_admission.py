"""Figure 12: per-query caching overhead of lazy / eager / ReCache admission."""

from repro.bench.experiments import (
    figure12a_admission_overhead_cdf,
    figure12b_admission_threshold_sweep,
)
from repro.bench.reporting import format_table


def test_fig12a_admission_overhead_cdf(run_experiment):
    result = run_experiment(
        figure12a_admission_overhead_cdf, num_queries=25, scale_factor=0.002
    )
    means = result["mean_overhead_pct"]
    print(
        f"mean caching overhead: lazy={means['lazy']:.1f}% eager={means['eager']:.1f}% "
        f"recache={means['recache']:.1f}% "
        f"(recache vs eager reduction {result['recache_vs_eager_reduction_pct']:.1f}%)"
    )
    # Paper shape: lazy caching is by far the cheapest per query and eager the
    # most expensive; ReCache sits in between (59% below eager in the paper).
    # The gap is smaller here because most misses read a source whose cached
    # item was already reused: such a miss skips the sample and is admitted
    # eagerly, so the threshold bounds only a minority of misses (ROADMAP
    # item 8).
    assert means["lazy"] < means["recache"]
    assert means["lazy"] < means["eager"]
    assert means["recache"] <= means["eager"] * 1.05


def test_fig12b_threshold_sweep(run_experiment):
    result = run_experiment(
        figure12b_admission_threshold_sweep,
        thresholds=(0.01, 0.10, 0.50),
        num_queries=20,
        scale_factor=0.002,
    )
    print(format_table(result["rows"], title="Figure 12b: switching-threshold sensitivity"))
    by_config = {row["config"]: row for row in result["rows"]}
    # A very permissive threshold (50%) must not have *lower* overhead than the
    # strict 1% threshold.
    assert (
        by_config["recache(T=50%)"]["mean_overhead_pct"]
        >= by_config["recache(T=1%)"]["mean_overhead_pct"] - 2.0
    )
