"""recheck-lint CLI: ``python -m tools.recheck_lint.lint src [--json report.json]``.

Parses every ``.py`` file under the given paths and runs the six rule
families (guarded-by, heavy-work, future-resolution, raise-flow, hotpath,
shm-lifecycle).  Exits 1 when any violation is found; ``--json`` also
writes a machine-readable report (archived as a CI artifact) carrying the
inferred per-function exception sets, the call-graph warnings and the
analyzer wall time.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import futures, guarded_by, heavy_work, hotpath, raises, shm_lifecycle
from .callgraph import build_call_graph
from .common import Module, Violation, collect_classes, iter_py_files

#: rule-family name -> checker; each gets (modules, classes, graph).
CHECKERS = {
    "guarded-by": guarded_by.check,
    "heavy-work": heavy_work.check,
    "future-resolution": futures.check,
    "raise-flow": raises.check,
    "hotpath": hotpath.check,
    "shm-lifecycle": shm_lifecycle.check,
}


def run_lint(paths: list[Path], rules: list[str] | None = None) -> tuple[list[Violation], dict]:
    """Run the selected rule families; return (violations, JSON report)."""
    started = time.perf_counter()
    files = iter_py_files(paths)
    modules: list[Module] = []
    errors: list[str] = []
    for path in files:
        try:
            modules.append(Module.parse(path))
        except SyntaxError as exc:
            errors.append(f"{path}: syntax error: {exc}")
    classes = collect_classes(modules)
    graph = build_call_graph(modules, classes)
    violations: list[Violation] = []
    for name, checker in CHECKERS.items():
        if rules is not None and name not in rules:
            continue
        violations.extend(checker(modules, classes, graph))  # dynamic-call: check
    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    report = {
        "tool": "recheck-lint",
        "paths": [str(path) for path in paths],
        "files_scanned": len(files),
        "rules": sorted(CHECKERS) if rules is None else sorted(rules),
        "parse_errors": errors,
        "violation_count": len(violations),
        "violations": [violation.as_dict() for violation in violations],
        "callgraph_warnings": graph.warnings,
        "raise_sets": raises.compute_raise_sets(modules, classes, graph),
        "wall_time_seconds": round(time.perf_counter() - started, 3),
    }
    return violations, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="recheck-lint",
        description="Static invariant checker for the ReCache tree.",
    )
    parser.add_argument("paths", nargs="+", help="files or directories to lint")
    parser.add_argument("--json", metavar="PATH", help="write a JSON report here")
    parser.add_argument(
        "--rules",
        help="comma-separated rule families to run (default: all)",
    )
    options = parser.parse_args(argv)

    rules = options.rules.split(",") if options.rules else None
    if rules is not None:
        unknown = set(rules) - set(CHECKERS)
        if unknown:
            parser.error(f"unknown rules: {', '.join(sorted(unknown))}")
    violations, report = run_lint([Path(p) for p in options.paths], rules)

    for violation in violations:
        print(violation.render())
    if report["parse_errors"]:
        for error in report["parse_errors"]:
            print(error, file=sys.stderr)
    if options.json:
        Path(options.json).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    summary = (
        f"recheck-lint: {report['violation_count']} violation(s) "
        f"in {report['files_scanned']} file(s) "
        f"({report['wall_time_seconds']:.2f}s)"
    )
    print(summary)
    return 1 if (violations or report["parse_errors"]) else 0


if __name__ == "__main__":
    sys.exit(main())
