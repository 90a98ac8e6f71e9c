#!/usr/bin/env python3
"""The ReCache end-to-end benchmark: one command, five workloads.

    python3 benchmarks/e2e/run.py --all --seed 1            every workload, end-to-end metrics
    python3 benchmarks/e2e/run.py --all --trace             plus the per-layer table
    python3 benchmarks/e2e/run.py --workload NAME --trace 1 one workload, traced, in this process
    python3 benchmarks/e2e/run.py --repeat-check            two full sets, compared to the bounds

``--workload`` runs one workload in this process and prints one JSON object as
its last line; ``--all`` starts one such process per workload, so set-up time
and peak memory are per workload.  See README.md beside this file.
"""

from __future__ import annotations

import time

_PROCESS_STARTED = time.perf_counter()

import argparse
import json
import os
import platform
import subprocess
import sys
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: the workload process's environment: the dataset writers derive per-table
#: streams from ``hash(str)``, so inputs repeat only under a fixed hash seed;
#: native thread pools are pinned so load comes from the benchmark's threads
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def print_metrics(name: str, result: dict) -> None:
    for metric, entry in result["metrics"].items():
        print(f"{name:<21}{metric:<40}{entry['value']:>14.4f} {entry['unit']}")
    few = "" if result["samples"] >= 200 else "; fewer than 200, so no p95 stands"
    print(
        f"{name:<21}{'failed_share':<40}{result['failed'] / result['attempted']:>14.4f} ratio"
        f"  ({result['failed']} of {result['attempted']} queries; {result['samples']} latency samples{few})"
    )
    for error in result["errors"]:
        print(f"{name}: {error}")


# ---------------------------------------------------------------------------
# Driving the set of workloads (one child process each)
# ---------------------------------------------------------------------------
def child(name: str, args, trace: int) -> tuple[dict, str]:
    """Run one workload in its own process: its result and the lines it printed."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]  # fmt: skip
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{name}: no result (exit {done.returncode})\n{done.stdout}{done.stderr}")
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def run_set(spec: dict, args, trace: bool) -> dict:
    """Every workload untraced, and traced when asked: name -> kind -> result.

    One process at a time, so that nothing competes with the workload being
    measured; a smoke run measures nothing and uses every core.
    """
    jobs = [(w["name"], t) for w in spec["workloads"] for t in ((0, 1) if trace else (0,))]
    results: dict[str, dict] = defaultdict(dict)
    with ThreadPoolExecutor(max_workers=os.cpu_count() if args.smoke else 1) as pool:
        outputs = pool.map(lambda job: child(job[0], args, job[1]), jobs)
        for (name, traced), (result, text) in zip(jobs, outputs):
            results[name]["per_layer" if traced else "end_to_end"] = result
            if not traced or not result["correct"]:
                print(text)
    if trace:
        names = list(results)
        print(f"\n{'per-layer metric':<40}{'unit':<9}" + "".join(f"{n[:16]:>17}" for n in names))
        for metric in spec["per_layer"]:
            row = [results[n]["per_layer"]["metrics"][metric["name"]]["value"] for n in names]
            print(f"{metric['name']:<40}{metric['unit']:<9}" + "".join(f"{v:>17.4f}" for v in row))
    return dict(results)


def repeat_check(spec: dict, args) -> int:
    """Two full untraced sets of the same commit must agree within the bounds."""
    first, second = run_set(spec, args, False), run_set(spec, args, False)
    unresolved = 0
    print(f"\n{'workload':<21}{'metric':<16}{'first':>12}{'second':>12}{'rel diff':>10}{'bound':>7}")
    for name in first:
        for metric in spec["end_to_end"]:
            a = first[name]["end_to_end"]["metrics"][metric["name"]]["value"]
            b = second[name]["end_to_end"]["metrics"][metric["name"]]["value"]
            diff = abs(a - b) / min(a, b)
            verdict = "" if diff <= metric["bound"] else "  unresolved"
            unresolved += bool(verdict)
            print(f"{name:<21}{metric['name']:<16}{a:>12.4f}{b:>12.4f}{diff:>10.3f}{metric['bound']:>7.2f}{verdict}")  # fmt: skip
    failed = sum(r["end_to_end"]["failed"] for r in (*first.values(), *second.values()))
    print(f"failed queries: {failed}; metrics beyond their bound: {unresolved}")
    return 1 if failed or unresolved else 0


def environment() -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"], capture_output=True, text=True
        )
        commit = done.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    mode.add_argument("--all", action="store_true", help="every workload, one process each")
    mode.add_argument("--repeat-check", action="store_true", help="two full sets, compared")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured seconds per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes: checks, not numbers")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 0.1 if args.smoke else spec["run_seconds"]

    if not (ROOT / "src" / "repro").is_dir():
        print(f"engine source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload:
        if any(os.environ.get(key) != value for key, value in PINNED_ENV.items()):
            os.environ.update(PINNED_ENV)
            os.execv(sys.executable, [sys.executable, *sys.argv])
        sys.path.insert(0, str(ROOT / "src"))
        from e2e_measure import run_workload

        result = run_workload(
            spec, args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, _PROCESS_STARTED
        )
        print_metrics(args.workload, result)
        print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
        return 0 if result["correct"] else 1
    print(f"environment: {json.dumps(environment())}  seed {args.seed}  {args.seconds:g} s per run")
    if args.repeat_check:
        return repeat_check(spec, args)
    results = run_set(spec, args, bool(args.trace))
    print(json.dumps(results))
    return 0 if all(part["correct"] for r in results.values() for part in r.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
