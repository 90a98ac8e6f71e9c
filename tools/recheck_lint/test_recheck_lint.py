"""recheck-lint self-test: seeded violations fire exactly, real tree is clean.

The corpus under ``corpus/`` plants one violation per ``# PLANTED:
<rule>`` comment.  The analyzer must flag *exactly* those (path, rule, line)
triples — firing elsewhere is a false positive, staying silent on a planted
line is a false negative — and must report zero violations on ``src``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from . import lint as lint_cli
from .lint import CHECKERS, run_lint

ROOT = Path(__file__).resolve().parents[2]
CORPUS = Path(__file__).resolve().parent / "corpus"
RULES = {"guarded-by", "heavy-work", "future-resolution", "raise-flow", "hotpath", "shm-lifecycle"}
_PLANTED_RE = re.compile(r"#\s*PLANTED:\s*([\w-]+)")


def planted_expectations() -> set[tuple[str, str, int]]:
    """Every (path, rule, line) the corpus declares via ``# PLANTED:``."""
    expected: set[tuple[str, str, int]] = set()
    for path in sorted(CORPUS.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            match = _PLANTED_RE.search(line)
            if match:
                expected.add((str(path), match.group(1), lineno))
    return expected


def test_corpus_exercises_every_rule_family():
    planted_rules = {rule for _, rule, _ in planted_expectations()}
    assert set(CHECKERS) == RULES
    assert planted_rules == RULES


def test_seeded_violations_fire_exactly_at_planted_lines():
    violations, report = run_lint([CORPUS])
    found = {(v.path, v.rule, v.line) for v in violations}
    expected = planted_expectations()
    assert found == expected, (
        f"false positives: {sorted(found - expected)}; "
        f"false negatives: {sorted(expected - found)}"
    )
    assert report["violation_count"] == len(expected)
    assert report["parse_errors"] == []
    # Every violation renders with a clickable path:line prefix.
    for violation in violations:
        assert violation.render().startswith(f"{violation.path}:{violation.line}: ")


def test_rule_selection_runs_only_requested_families():
    violations, report = run_lint([CORPUS], rules=["heavy-work"])
    assert {v.rule for v in violations} == {"heavy-work"}
    assert report["rules"] == ["heavy-work"]


def test_real_tree_is_clean():
    violations, report = run_lint([ROOT / "src"])
    assert [v.render() for v in violations] == []
    assert report["parse_errors"] == []
    assert report["rules"] == sorted(RULES)
    assert report["files_scanned"] > 50  # the whole tree, not a subset


def test_report_archives_raise_sets_and_wall_time():
    """The CI report carries the inferred per-function exception sets."""
    _, report = run_lint([ROOT / "src"])
    raise_sets = report["raise_sets"]
    # The interprocedural inference must reproduce the documented contracts.
    assert raise_sets["QueryEngine.execute"] == [
        "DeadlineExceeded",
        "TransientScanError",
        "WorkerCrashed",
    ]
    assert "TransientScanError" in raise_sets["execute_plan"]
    # record_reuse's contract is "raises nothing": it must not appear at all.
    assert "ReCache.record_reuse" not in raise_sets
    assert isinstance(report["wall_time_seconds"], float)
    assert report["wall_time_seconds"] < 10.0
    assert all(isinstance(w, str) for w in report["callgraph_warnings"])


def test_cli_exit_codes_and_json_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert lint_cli.main([str(CORPUS), "--json", str(report_path)]) == 1
    data = json.loads(report_path.read_text())
    assert data["tool"] == "recheck-lint"
    assert data["violation_count"] == len(planted_expectations())
    assert {v["rule"] for v in data["violations"]} == RULES

    assert lint_cli.main([str(ROOT / "src"), "--json", str(report_path)]) == 0
    data = json.loads(report_path.read_text())
    assert data["violation_count"] == 0
    out = capsys.readouterr().out
    assert "recheck-lint: 0 violation(s)" in out

