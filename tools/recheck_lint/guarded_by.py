"""Rule ``guarded-by``: guarded attributes are touched only under their lock.

For every class carrying a ``GUARDED_BY`` declaration (or ``# guarded-by:``
comments on ``__init__`` assignments), each ``self.<field>`` load/store in
its methods must be lexically inside ``with self.<lock>:`` for the declared
lock (aliases such as a Condition sharing the lifecycle lock resolve first),
or inside a method whose ``def`` line documents ``# caller-holds: self.<lock>``.

Escapes, both explicit in the source so review can see them:

* ``# unguarded-read: <why>`` blesses a lock-free *load* on that line
  (GIL-atomic int/reference reads used by monitoring properties);
* ``# recheck-lint: allow(guarded-by)`` suppresses anything else.

``__init__``/``__post_init__`` are exempt (no concurrent publication yet).
Nested ``def``s restart with only their own declared caller-holds set;
lambdas and comprehensions are scanned with the enclosing held set, since
the tree only uses them inline under the lock that encloses them.
"""

from __future__ import annotations

import ast

from .common import ClassInfo, Module, Violation, with_lock_attrs

RULE = "guarded-by"
_EXEMPT_METHODS = {"__init__", "__post_init__"}


def check(modules: list[Module], classes: dict[str, ClassInfo], graph=None) -> list[Violation]:
    del graph
    violations: list[Violation] = []
    for info in classes.values():
        if not info.guarded:
            continue
        for stmt in info.node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if stmt.name in _EXEMPT_METHODS:
                    continue
                _scan_function(info, stmt, violations)
    return violations


def _scan_function(
    info: ClassInfo,
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    violations: list[Violation],
) -> None:
    held = {info.resolve_lock(name) for name in info.module.caller_holds(func.lineno)}
    _scan_stmts(info, func.body, held, violations)


def _scan_stmts(
    info: ClassInfo,
    stmts: list[ast.stmt],
    held: set[str],
    violations: list[Violation],
) -> None:
    for stmt in stmts:
        _scan_stmt(info, stmt, held, violations)


def _scan_stmt(
    info: ClassInfo,
    stmt: ast.stmt,
    held: set[str],
    violations: list[Violation],
) -> None:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        _scan_function(info, stmt, violations)
        return
    if isinstance(stmt, ast.ClassDef):
        return
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        acquired = set()
        for item in stmt.items:
            _scan_expr(info, item.context_expr, held, violations)
            attr = with_lock_attrs(item)
            if attr is not None:
                acquired.add(info.resolve_lock(attr))
        _scan_stmts(info, stmt.body, held | acquired, violations)
        return
    for value in ast.iter_child_nodes(stmt):
        if isinstance(value, ast.stmt):
            _scan_stmt(info, value, held, violations)
        elif isinstance(value, ast.expr):
            _scan_expr(info, value, held, violations)
        elif isinstance(value, ast.excepthandler):
            _scan_stmts(info, value.body, held, violations)
        elif isinstance(value, (ast.withitem, ast.keyword)):  # pragma: no cover
            _scan_expr(info, getattr(value, "context_expr", getattr(value, "value", value)), held, violations)


def _scan_expr(
    info: ClassInfo,
    expr: ast.expr,
    held: set[str],
    violations: list[Violation],
) -> None:
    for node in ast.walk(expr):
        if not isinstance(node, ast.Attribute):
            continue
        if not (isinstance(node.value, ast.Name) and node.value.id == "self"):
            continue
        lock = info.guarded.get(node.attr)
        if lock is None:
            continue
        lock = info.resolve_lock(lock)
        if lock in held:
            continue
        line = node.lineno
        module = info.module
        if module.allows(line, RULE):
            continue
        if isinstance(node.ctx, ast.Load) and module.blesses_unguarded_read(line):
            continue
        action = "read" if isinstance(node.ctx, ast.Load) else "write"
        violations.append(
            Violation(
                rule=RULE,
                path=str(module.path),
                line=line,
                message=(
                    f"{info.name}.{node.attr} {action} without holding "
                    f"self.{lock} (declared in GUARDED_BY)"
                ),
            )
        )
