"""Shared fixtures: small on-disk datasets, engine builders, budget checks."""

from __future__ import annotations

import pytest

from repro import QueryEngine, ReCacheConfig
from repro.engine.types import FLOAT, INT, Field, ListType, RecordType
from repro.formats import write_csv, write_json_lines
from repro.workloads.nested import synthetic_order_lineitems
from repro.workloads.tpch import ORDER_LINEITEMS_SCHEMA

FLAT_SCHEMA = RecordType(
    [Field("id", INT), Field("value", FLOAT), Field("group", INT), Field("score", FLOAT)]
)


def make_flat_rows(count: int = 400) -> list[dict]:
    return [
        {"id": i, "value": i * 0.5, "group": i % 10, "score": (i * 7) % 100 / 10.0}
        for i in range(count)
    ]


@pytest.fixture(scope="session")
def dataset_dir(tmp_path_factory):
    """A session-scoped directory holding one CSV and one nested JSON file."""
    directory = tmp_path_factory.mktemp("data")
    write_csv(directory / "flat.csv", FLAT_SCHEMA, make_flat_rows())
    write_json_lines(directory / "orders.json", synthetic_order_lineitems(200, seed=5))
    return directory


@pytest.fixture()
def engine(dataset_dir):
    """A query engine over the shared datasets with a fresh cache per test."""
    config = ReCacheConfig(admission_sample_records=50)
    eng = QueryEngine(config)
    eng.register_csv("flat", dataset_dir / "flat.csv", FLAT_SCHEMA)
    eng.register_json("orders", dataset_dir / "orders.json", ORDER_LINEITEMS_SCHEMA)
    return eng


def build_engine(dataset_dir, config: ReCacheConfig) -> QueryEngine:
    eng = QueryEngine(config)
    eng.register_csv("flat", dataset_dir / "flat.csv", FLAT_SCHEMA)
    eng.register_json("orders", dataset_dir / "orders.json", ORDER_LINEITEMS_SCHEMA)
    return eng


@pytest.fixture()
def fast_retries(monkeypatch):
    """Short transient-scan retry backoff for tests that retry many faults."""
    monkeypatch.setattr("repro.engine.session.SCAN_RETRY_BACKOFF", 0.0005)


# ---------------------------------------------------------------------------
# Budget/occupancy conservation — the chaos suite's leak detector
# ---------------------------------------------------------------------------
@pytest.fixture()
def assert_budget_conserved():
    """Register caches; teardown asserts their accounting returned to baseline.

    Usage: ``assert_budget_conserved(engine.recache)`` (returns the cache, so
    it chains).  At teardown every tracked cache's occupancy must equal the
    bytes of the entries actually resident — exactly what a test that raises
    mid-admission, mid-eviction or mid-quarantine is trying to violate.
    """
    tracked = []

    def track(recache):
        tracked.append(recache)
        return recache

    yield track

    for recache in tracked:
        resident = sum(entry.nbytes for entry in recache.entries())
        assert recache.total_bytes == resident, (
            f"occupancy {recache.total_bytes} != resident entry bytes "
            f"{resident}: admission/eviction accounting leaked"
        )

