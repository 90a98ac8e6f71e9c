"""Dataset and query-workload generators used by the evaluation.

The paper evaluates ReCache on three workloads: synthetic TPC-H data (CSV and
JSON), Symantec's spam-email JSON/CSV logs, and Yelp's open dataset.  The
TPC-H generator here follows the official schema shapes at configurable small
scale; the Symantec and Yelp datasets are proprietary/large, so structurally
equivalent synthetic generators stand in for them (see DESIGN.md's
substitution table).
"""

from repro.workloads.tpch import (
    TPCH_SCHEMAS,
    TPCH_FIELD_RANGES,
    TPCHGenerator,
    write_tpch_dataset,
    write_order_lineitems_json,
)
from repro.workloads.nested import (
    ORDER_LINEITEMS_SCHEMA,
    cardinality_sweep_records,
    synthetic_order_lineitems,
)
from repro.workloads.symantec import (
    SYMANTEC_CSV_SCHEMA,
    SYMANTEC_JSON_SCHEMA,
    SYMANTEC_FIELD_RANGES,
    write_symantec_dataset,
)
from repro.workloads.yelp import YELP_SCHEMAS, YELP_FIELD_RANGES, write_yelp_dataset
from repro.workloads.queries import (
    AttributeSchedule,
    spa_workload,
    spj_tpch_workload,
    symantec_mixed_workload,
    yelp_spa_workload,
)
from repro.workloads.runner import WorkloadResult, WorkloadRunner

__all__ = [
    "TPCH_SCHEMAS",
    "TPCH_FIELD_RANGES",
    "TPCHGenerator",
    "write_tpch_dataset",
    "write_order_lineitems_json",
    "ORDER_LINEITEMS_SCHEMA",
    "cardinality_sweep_records",
    "synthetic_order_lineitems",
    "SYMANTEC_CSV_SCHEMA",
    "SYMANTEC_JSON_SCHEMA",
    "SYMANTEC_FIELD_RANGES",
    "write_symantec_dataset",
    "YELP_SCHEMAS",
    "YELP_FIELD_RANGES",
    "write_yelp_dataset",
    "AttributeSchedule",
    "spa_workload",
    "spj_tpch_workload",
    "symantec_mixed_workload",
    "yelp_spa_workload",
    "WorkloadResult",
    "WorkloadRunner",
]
