"""Shared dataset setup for the experiment drivers.

Experiments need the TPC-H, Symantec-style and Yelp-style files
on disk.  Writing them is cheap but not free, so the builders below memoize the
generated files in a per-process temporary directory keyed by their parameters;
every bench that asks for the same dataset reuses the same files.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.core.config import ReCacheConfig
from repro.engine.session import QueryEngine
from repro.workloads.symantec import SYMANTEC_CSV_SCHEMA, SYMANTEC_JSON_SCHEMA, write_symantec_dataset
from repro.workloads.tpch import TPCH_SCHEMAS, write_tpch_dataset
from repro.workloads.yelp import YELP_SCHEMAS, write_yelp_dataset

_root: Path | None = None
_generated: dict[tuple, dict[str, Path]] = {}


def bench_data_root() -> Path:
    """The per-process scratch directory holding generated bench datasets."""
    global _root
    if _root is None:
        _root = Path(tempfile.mkdtemp(prefix="recache-bench-"))
    return _root


def tpch_files(scale_factor: float = 0.001, seed: int = 42, lineitem_json: bool = False) -> dict[str, Path]:
    """TPC-H CSV files (plus a JSON copy of lineitem when requested)."""
    key = ("tpch", scale_factor, seed, lineitem_json)
    if key not in _generated:
        directory = bench_data_root() / f"tpch_{scale_factor}_{seed}_{int(lineitem_json)}"
        json_tables = ["lineitem"] if lineitem_json else []
        _generated[key] = write_tpch_dataset(
            directory, scale_factor=scale_factor, seed=seed, json_tables=json_tables
        )
    return _generated[key]


def symantec_files(json_records: int = 1200, csv_records: int = 4000, seed: int = 23) -> dict[str, Path]:
    key = ("symantec", json_records, csv_records, seed)
    if key not in _generated:
        directory = bench_data_root() / f"symantec_{json_records}_{csv_records}_{seed}"
        _generated[key] = write_symantec_dataset(directory, json_records, csv_records, seed)
    return _generated[key]


def yelp_files(total_records: int = 1500, seed: int = 31) -> dict[str, Path]:
    key = ("yelp", total_records, seed)
    if key not in _generated:
        directory = bench_data_root() / f"yelp_{total_records}_{seed}"
        _generated[key] = write_yelp_dataset(directory, total_records, seed)
    return _generated[key]


# ---------------------------------------------------------------------------
# Engine builders
# ---------------------------------------------------------------------------
def tpch_engine(
    config: ReCacheConfig,
    scale_factor: float = 0.01,
    seed: int = 42,
    lineitem_json: bool = False,
) -> QueryEngine:
    """A query engine with all five TPC-H tables registered."""
    paths = tpch_files(scale_factor=scale_factor, seed=seed, lineitem_json=lineitem_json)
    engine = QueryEngine(config)
    for table, schema in TPCH_SCHEMAS.items():
        engine.register_csv(table, paths[table], schema)
    if lineitem_json:
        engine.register_json("lineitem_json", paths["lineitem_json"], TPCH_SCHEMAS["lineitem"])
    return engine


def symantec_engine(
    config: ReCacheConfig, json_records: int = 1200, csv_records: int = 4000, seed: int = 23
) -> QueryEngine:
    """A query engine with the Symantec-style JSON and CSV files registered."""
    paths = symantec_files(json_records, csv_records, seed)
    engine = QueryEngine(config)
    engine.register_json("spam_json", paths["spam_json"], SYMANTEC_JSON_SCHEMA)
    engine.register_csv("spam_csv", paths["spam_csv"], SYMANTEC_CSV_SCHEMA)
    return engine


def yelp_engine(config: ReCacheConfig, total_records: int = 1500, seed: int = 31) -> QueryEngine:
    """A query engine with the Yelp-style business/user/review files registered."""
    paths = yelp_files(total_records, seed)
    engine = QueryEngine(config)
    for name, schema in YELP_SCHEMAS.items():
        engine.register_json(name, paths[name], schema)
    return engine
