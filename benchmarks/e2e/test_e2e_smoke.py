"""Smoke test of the end-to-end benchmark: its structure and hygiene, not its numbers."""

from __future__ import annotations

import glob
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def smoke_run():
    """One ``--all --trace --smoke`` run in a process group of its own."""
    shm_before = set(glob.glob("/dev/shm/*"))
    process = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--all", "--trace", "--smoke", "--seed", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=170)
    finally:
        process.kill()
        process.wait()
    assert process.returncode == 0, stdout + stderr
    return process.pid, stdout, json.loads(stdout.strip().splitlines()[-1]), shm_before


def test_every_named_workload_and_metric_is_printed_with_its_unit(smoke_run):
    _, stdout, results, _ = smoke_run
    lines = [line.split() for line in stdout.splitlines()]
    workloads = [workload["name"] for workload in SPEC["workloads"]]
    assert list(results) == workloads
    for name in workloads:
        assert NAME.fullmatch(name)
        for kind in ("end_to_end", "per_layer"):
            result = results[name][kind]
            assert [m["name"] for m in SPEC[kind]] == list(result["metrics"])
            for metric in SPEC[kind]:
                assert NAME.fullmatch(metric["name"])
                assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        for metric in SPEC["end_to_end"]:
            assert any(
                line[:2] == [name, metric["name"]] and line[-1] == metric["unit"] for line in lines
            ), (name, metric["name"])
    for metric in SPEC["per_layer"]:
        assert any(line[:2] == [metric["name"], metric["unit"]] for line in lines), metric["name"]


def test_no_query_fails_and_end_to_end_metrics_are_positive(smoke_run):
    _, _, results, _ = smoke_run
    for name, result in results.items():
        for kind in ("end_to_end", "per_layer"):
            assert result[kind]["correct"] and result[kind]["failed"] == 0, (name, kind)
            assert result[kind]["attempted"] >= 1
        for metric, entry in result["end_to_end"]["metrics"].items():
            assert entry["value"] > 0, (name, metric)


def test_layer_self_times_stay_within_the_wall_time(smoke_run):
    _, _, results, _ = smoke_run
    for name, result in results.items():
        untraced = result["per_layer"]["metrics"]["untraced_share"]["value"]
        assert 0.0 <= untraced < 1.0, (name, untraced)
        trace = json.loads((HERE / "out" / f"trace_{name}.json").read_text(encoding="utf-8"))
        assert trace["spans"] and trace["untraced_targets"] == []
        assert sum(trace["self_seconds"].values()) <= trace["traced_client_seconds"]


def test_the_expected_layers_work_on_the_expected_workloads(smoke_run):
    _, _, results, _ = smoke_run

    def layer(name: str, metric: str) -> float:
        return results[name]["per_layer"]["metrics"][metric]["value"]

    for name in results:
        cold = not name.startswith("hot_")
        assert (layer(name, "formats.scan_s") > 0) == cold, name
        assert layer(name, "layouts.build_s") > 0 or not cold, name
        assert (layer(name, "core.cache_manager.evictions") > 0) == (name == "tpch_evict_tight")
        assert (layer(name, "engine.server.self_s") > 0) == (name == "hot_zipf_served")
        assert (layer(name, "engine.server.queue_wait_s") > 0) == (name == "hot_zipf_served")
        assert layer(name, "layouts.scan_s") > 0
    assert layer("hot_mix_direct", "core.cache_manager.hit_share") == 1.0


def test_nothing_survives_the_run(smoke_run):
    pid, _, _, shm_before = smoke_run
    assert set(glob.glob("/dev/shm/*")) <= shm_before
    assert glob.glob(str(HERE / "out" / "data-*")) == []
    with pytest.raises(ProcessLookupError):
        os.killpg(pid, 0)  # the run's process group is empty: no child outlived it


def test_targets_rebind_where_imported_and_a_deleted_one_is_reported(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE.parents[1] / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import repro.engine.executor as executor
    from e2e_tracing import Tracer

    original = executor.build_layout
    gone = ["repro.engine.no_such_module.run", "repro.engine.batch.gone"]
    tracer = Tracer({"repro.layouts.convert.build_layout": "layouts.build", **dict.fromkeys(gone, "gone")})
    tracer.install()
    try:
        assert executor.build_layout is not original  # held there through ``from ... import``
    finally:
        tracer.uninstall()
    assert executor.build_layout is original
    assert tracer.untraced_targets == gone
