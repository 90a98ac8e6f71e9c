"""Tests for the seeded fault-injection subsystem (``repro.faults``)."""

from __future__ import annotations

import contextlib
import dataclasses
import os
import subprocess
import sys

import pytest

from repro.core.errors import (
    CorruptedCacheError,
    DeadlineExceeded,
    ReCacheError,
    TransientScanError,
    WorkerCrashed,
)
from repro.faults import (
    FaultPlan,
    FaultSpec,
    activate,
    active_plan,
    injector_for,
    install,
    parse_fault_plan,
    parse_fault_spec,
)


# ---------------------------------------------------------------------------
# Spec grammar
# ---------------------------------------------------------------------------
def test_parse_minimal_spec():
    spec = parse_fault_spec("scan.raw:io_error")
    assert spec.scope == "scan.raw"
    assert spec.kind == "io_error"
    assert spec.rate == 1.0
    assert spec.limit is None
    assert spec.after == 0


def test_parse_spec_with_params_and_detail():
    spec = parse_fault_spec(
        "scan.layout:latency:rate=0.25,limit=3,after=10,delay=0.5,detail=parquet"
    )
    assert spec.rate == 0.25
    assert spec.limit == 3
    assert spec.after == 10
    assert spec.delay == 0.5
    assert spec.detail == "parquet"


def test_spec_round_trips_through_as_string():
    spec = parse_fault_spec("server.worker:worker_crash:rate=0.5,limit=2")
    assert parse_fault_spec(spec.as_string()) == spec


def test_parse_plan_splits_on_semicolons():
    plan = parse_fault_plan("scan.raw:io_error;server.worker:worker_crash:limit=1", seed=3)
    assert len(plan.specs) == 2
    assert plan.seed == 3


@pytest.mark.parametrize(
    "bad",
    [
        "",  # empty
        "scan.raw",  # missing kind
        "nope:io_error",  # unknown scope
        "scan.raw:nope",  # unknown kind
        "scan.raw:io_error:rate=2.0",  # rate out of range
        "scan.raw:io_error:limit=-1",  # negative limit
        "scan.raw:io_error:bogus=1",  # unknown param
        "scan.raw:io_error:rate",  # malformed key=value
    ],
)
def test_invalid_specs_raise(bad):
    with pytest.raises(ValueError):
        parse_fault_plan(bad, seed=0)


# ---------------------------------------------------------------------------
# Error taxonomy
# ---------------------------------------------------------------------------
def test_every_typed_error_is_a_recache_error():
    for exc_type in (
        TransientScanError,
        CorruptedCacheError,
        DeadlineExceeded,
        WorkerCrashed,
    ):
        assert issubclass(exc_type, ReCacheError)


def test_injector_kind_maps_to_typed_error():
    cases = {
        "io_error": TransientScanError,
        "short_read": TransientScanError,
        "corrupt": CorruptedCacheError,
        "worker_crash": WorkerCrashed,
    }
    for kind, exc_type in cases.items():
        plan = parse_fault_plan(f"scan.raw:{kind}:limit=1", seed=1)
        injector = plan.injector_for("scan.raw")
        assert injector is not None
        with pytest.raises(exc_type):
            injector()


# ---------------------------------------------------------------------------
# Determinism and scheduling parameters
# ---------------------------------------------------------------------------
def _fire_pattern(spec: str, seed: int, opportunities: int) -> list[bool]:
    plan = parse_fault_plan(spec, seed=seed)
    injector = plan.injector_for(spec.split(":", 1)[0])
    assert injector is not None
    pattern = []
    for _ in range(opportunities):
        try:
            injector()
            pattern.append(False)
        except ReCacheError:
            pattern.append(True)
    return pattern


def test_same_seed_same_schedule():
    spec = "scan.raw:io_error:rate=0.3"
    assert _fire_pattern(spec, 42, 200) == _fire_pattern(spec, 42, 200)


def test_different_seed_different_schedule():
    spec = "scan.raw:io_error:rate=0.3"
    assert _fire_pattern(spec, 1, 200) != _fire_pattern(spec, 2, 200)


def test_after_skips_then_limit_caps():
    pattern = _fire_pattern("scan.raw:io_error:after=5,limit=3", 7, 20)
    assert pattern == [False] * 5 + [True] * 3 + [False] * 12


def test_rate_zero_never_fires_and_rate_one_always_fires():
    assert not any(_fire_pattern("scan.raw:io_error:rate=0.0", 9, 50))
    assert all(_fire_pattern("scan.raw:io_error:rate=1.0", 9, 50))


def test_snapshot_reports_opportunities_and_fires():
    plan = parse_fault_plan("scan.raw:io_error:limit=2", seed=0)
    injector = plan.injector_for("scan.raw")
    for _ in range(5):
        with contextlib.suppress(ReCacheError):
            injector()
    (row,) = plan.snapshot()
    assert row["opportunities"] == 5
    assert row["fired"] == 2


# ---------------------------------------------------------------------------
# Scoping and activation
# ---------------------------------------------------------------------------
def test_detail_filter_matches_substring():
    plan = parse_fault_plan("scan.raw:io_error:detail=orders", seed=0)
    assert plan.injector_for("scan.raw", "orders.json") is not None
    assert plan.injector_for("scan.raw", "flat.csv") is None
    # No detail offered at the site: the spec still applies.
    assert plan.injector_for("scan.raw") is not None


def test_scope_filter():
    plan = parse_fault_plan("scan.layout:corrupt", seed=0)
    assert plan.injector_for("scan.layout") is not None
    assert plan.injector_for("scan.raw") is None


def test_disabled_runtime_returns_none():
    assert active_plan() is None
    assert injector_for("scan.raw") is None


def test_activate_restores_previous_plan():
    outer = parse_fault_plan("scan.raw:io_error", seed=0)
    install(outer)
    try:
        with activate("scan.layout:corrupt", seed=1) as inner:
            assert active_plan() is inner
            assert injector_for("scan.layout") is not None
        assert active_plan() is outer
    finally:
        install(None)
    assert active_plan() is None


def test_env_var_installs_plan_at_import():
    code = (
        "from repro.faults import runtime\n"
        "plan = runtime.active_plan()\n"
        "assert plan is not None and plan.seed == 11, plan\n"
        "assert runtime.injector_for('server.worker') is not None\n"
        "print('ok')\n"
    )
    env = dict(os.environ)
    env["RECACHE_FAULTS"] = "server.worker:worker_crash:rate=0.5"
    env["RECACHE_FAULTS_SEED"] = "11"
    env["PYTHONPATH"] = "src"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert "ok" in result.stdout


def test_plan_is_immutable_value():
    plan = parse_fault_plan("scan.raw:io_error", seed=0)
    assert isinstance(plan, FaultPlan)
    assert isinstance(plan.specs[0], FaultSpec)
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.specs[0].rate = 0.5
