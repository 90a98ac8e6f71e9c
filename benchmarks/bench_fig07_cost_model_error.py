"""Figure 7: CDF of the layout cost model's prediction error."""

from repro.bench.experiments import figure7_cost_model_error


def test_fig07_cost_model_error(run_experiment):
    result = run_experiment(figure7_cost_model_error, num_orders=400, num_queries=60)
    print(
        "cost-model error: "
        f"median={result['median_error']:.1f}% "
        f"within 10%={result['fraction_within_10pct']:.0%} "
        f"within 30%={result['fraction_within_30pct']:.0%} "
        f"within 50%={result['fraction_within_50pct']:.0%}"
    )
    # The paper reports 90% of predictions within 10% of the measured cost.
    # Here the data cost D is the scanned value count times one per-value
    # constant calibrated once (engine/calibration.py), not a timing of the
    # scan itself, and C is the rest of the measured total (ROADMAP item 6),
    # so the reproduced accuracy is looser; but the errors must still be
    # centred: at least half the predictions land within 50% of the measured
    # cost.
    assert result["fraction_within_50pct"] >= 0.5
    assert len(result["errors"]) == 120
