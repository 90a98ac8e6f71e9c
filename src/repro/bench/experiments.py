"""One entry point per table/figure of the paper's evaluation.

This module is the index DESIGN.md refers to: every experiment driver is
re-exported here under its figure/table name so the ``benchmarks/`` scripts
(and downstream users) have a single flat namespace to call into.

=====================  =======================================================
Paper artifact         Driver
=====================  =======================================================
Table 1                :func:`table1_related_work`
Figure 1               :func:`figure1_layout_gap`
Figure 5               :func:`figure5_scan_vs_cardinality`
Figure 6               :func:`figure6_write_latency`
Figure 7               :func:`figure7_cost_model_error`
Figure 9a/9b/9c        :func:`figure9_auto_layout` (``pattern=`` halves /
                       alternating / random)
Figure 10a/10b         :func:`figure10_symantec_cumulative`
                       (``nested_fraction=`` 0.1 / 0.9)
Figure 11a             :func:`figure11a_sensitivity_nested_symantec`
Figure 11b             :func:`figure11b_sensitivity_nested_yelp`
Figure 11c             :func:`figure11c_sensitivity_json_fraction`
Figure 12a             :func:`figure12a_admission_overhead_cdf`
Figure 12b             :func:`figure12b_admission_threshold_sweep`
Figure 13              :func:`figure13_admission_cumulative`
Figure 14              :func:`figure14_eviction_policies`
Figure 15a             :func:`figure15a_symantec_diverse`
Figure 15b             :func:`figure15b_yelp_diverse`
Ablations              :func:`ablation_benefit_recompute`,
                       :func:`ablation_eviction_order`,
                       :func:`ablation_admission_estimator`
=====================  =======================================================
"""

from repro.bench.admission_experiments import (
    figure12a_admission_overhead_cdf,
    figure12b_admission_threshold_sweep,
    figure13_admission_cumulative,
)
from repro.bench.eviction_experiments import (
    FIGURE14_POLICIES,
    ablation_admission_estimator,
    ablation_benefit_recompute,
    ablation_eviction_order,
    figure14_eviction_policies,
)
from repro.bench.layout_experiments import (
    figure1_layout_gap,
    figure5_scan_vs_cardinality,
    figure6_write_latency,
    figure7_cost_model_error,
    figure9_auto_layout,
)
from repro.bench.related_work import TABLE1_REQUIREMENTS, table1_related_work
from repro.bench.workload_experiments import (
    figure10_symantec_cumulative,
    figure11a_sensitivity_nested_symantec,
    figure11b_sensitivity_nested_yelp,
    figure11c_sensitivity_json_fraction,
    figure15a_symantec_diverse,
    figure15b_yelp_diverse,
)

__all__ = [
    "TABLE1_REQUIREMENTS",
    "table1_related_work",
    "figure1_layout_gap",
    "figure5_scan_vs_cardinality",
    "figure6_write_latency",
    "figure7_cost_model_error",
    "figure9_auto_layout",
    "figure10_symantec_cumulative",
    "figure11a_sensitivity_nested_symantec",
    "figure11b_sensitivity_nested_yelp",
    "figure11c_sensitivity_json_fraction",
    "figure12a_admission_overhead_cdf",
    "figure12b_admission_threshold_sweep",
    "figure13_admission_cumulative",
    "figure14_eviction_policies",
    "FIGURE14_POLICIES",
    "figure15a_symantec_diverse",
    "figure15b_yelp_diverse",
    "ablation_benefit_recompute",
    "ablation_eviction_order",
    "ablation_admission_estimator",
]
