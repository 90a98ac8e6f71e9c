"""Rule ``heavy-work``: no known-expensive call inside a lock region.

A lock region is the body of a ``with <receiver>.<attr>:`` whose ``<attr>``
is a lock some class declares (a ``GUARDED_BY`` value or a
``LOCK_ALIASES`` name), on ``self`` or any other receiver alike
(``with self._lock:``, ``with cache._lock:``), plus the body of a method
whose ``def`` line documents ``# caller-holds: self.<lock>``.  Inside one,
no layout conversion/building, batch scan, file I/O or ``time.sleep`` call
may appear: layouts are built and converted *outside* the cache lock and
installed under it, and this rule keeps that invariant machine-checked.
A nested ``def`` body runs later, so it starts outside any region.

Suppress with ``# recheck-lint: allow(heavy-work)`` on the offending line.
"""

from __future__ import annotations

import ast

from .common import ClassInfo, Module, Violation

RULE = "heavy-work"

#: Plain function names whose calls are forbidden while holding a lock.
HEAVY_CALL_NAMES: frozenset[str] = frozenset(
    {"build_layout", "convert_layout", "stripe_records", "open", "sleep", "print"}
)

#: Attribute (method) names whose calls are forbidden while holding a lock.
HEAVY_CALL_ATTRS: frozenset[str] = frozenset(
    {
        "convert",
        "scan",
        "scan_batches",
        "range_filtered_batch",
        "read_record_batches",
        "read_record_rows",
        "sleep",
        "open",
        "execute",
    }
)


def check(modules: list[Module], classes: dict[str, ClassInfo], graph=None) -> list[Violation]:
    del graph
    locks: set[str] = set()
    for info in classes.values():
        locks |= info.lock_names()
    violations: list[Violation] = []
    for module in modules:
        _scan_stmts(module, module.tree.body, (), locks, violations)
    return violations


def _scan_stmts(
    module: Module,
    stmts: list[ast.stmt],
    held: tuple[str, ...],
    locks: set[str],
    violations: list[Violation],
) -> None:
    for stmt in stmts:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            entry = tuple(f"self.{attr}" for attr in sorted(module.caller_holds(stmt.lineno)))
            _scan_stmts(module, stmt.body, entry, locks, violations)
        elif isinstance(stmt, ast.ClassDef):
            _scan_stmts(module, stmt.body, (), locks, violations)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            acquired = held
            for item in stmt.items:
                _scan_expr(module, item.context_expr, acquired, violations)
                expr = item.context_expr
                if isinstance(expr, ast.Attribute) and expr.attr in locks:
                    acquired += (ast.unparse(expr),)
            _scan_stmts(module, stmt.body, acquired, locks, violations)
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    _scan_stmts(module, [child], held, locks, violations)
                elif isinstance(child, ast.expr):
                    _scan_expr(module, child, held, violations)
                elif isinstance(child, ast.excepthandler):
                    _scan_stmts(module, child.body, held, locks, violations)


def _scan_expr(
    module: Module, expr: ast.expr, held: tuple[str, ...], violations: list[Violation]
) -> None:
    if not held:
        return
    for node in ast.walk(expr):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name is None or module.allows(node.lineno, RULE):
            continue
        violations.append(
            Violation(
                rule=RULE,
                path=str(module.path),
                line=node.lineno,
                message=(
                    f"call to {name}() inside a lock region "
                    f"(holding {', '.join(held)}); "
                    "do heavy work outside the lock and install the result under it"
                ),
            )
        )


def _call_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name) and func.id in HEAVY_CALL_NAMES:
        return func.id
    if isinstance(func, ast.Attribute) and func.attr in HEAVY_CALL_ATTRS:
        return func.attr
    return None
