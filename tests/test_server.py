"""Tests for the EngineServer lifecycle and the Zipf sampler behind served workloads."""

from __future__ import annotations

import pytest

from repro import EngineServer, Query, ReCacheConfig
from repro.engine.expressions import AggregateSpec, FieldRef, RangePredicate
from repro.utils.rng import ZipfianSampler, make_rng

from tests.conftest import build_engine


def _flat_query(index: int, low: float, width: float = 30.0) -> Query:
    return Query.select_aggregate(
        "flat",
        RangePredicate("value", low, low + width),
        [AggregateSpec("sum", FieldRef("score")), AggregateSpec("count", FieldRef("id"))],
        label=f"serve-{index}",
    )


@pytest.fixture()
def server_engine(dataset_dir):
    config = ReCacheConfig(max_workers=4, admission_sample_records=50)
    return build_engine(dataset_dir, config)


def test_submit_after_shutdown_raises(server_engine):
    server = EngineServer(server_engine)
    server.shutdown()
    with pytest.raises(RuntimeError):
        server.submit(_flat_query(0, 10.0))


def test_zipfian_sampler_distribution():
    rng = make_rng(3)
    sampler = ZipfianSampler(20, s=1.2)
    draws = [sampler.sample(rng) for _ in range(3000)]
    assert min(draws) >= 0 and max(draws) < 20
    frequency = [draws.count(rank) for rank in range(20)]
    assert frequency[0] > frequency[10] > 0
    uniform = ZipfianSampler(4, s=0.0)
    uniform_draws = [uniform.sample(rng) for _ in range(4000)]
    for rank in range(4):
        assert 800 < uniform_draws.count(rank) < 1200

