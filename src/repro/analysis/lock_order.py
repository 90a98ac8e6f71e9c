"""Rules ``lock-order`` and ``heavy-work``.

``lock-order``: within one function, nested ``with`` acquisitions must
follow the declared partial order — every inner lock's rank must be
*strictly greater* than every rank already held (equal ranks never nest:
two same-rank locks have no safe tiebreak).  Ranks come from
:data:`repro.analysis.order.LOCK_RANKS` for ``self.<attr>`` acquisitions
(resolved against the enclosing class, aliases first), from
``LOCK_RANKS_BY_ATTR`` for other receivers (``with cache._lock:``), and
from module-level ``RECHECK_LOCK_RANKS`` literals.  Unranked locks are
tracked but unconstrained.  ``# caller-holds:`` contributes its rank at
function entry.  Cross-function nesting (a held lock calling a method
that locks internally) is the runtime watchdog's job, not this rule's.

``heavy-work``: no known-expensive call — layout conversion/building,
batch scans, file I/O, ``time.sleep`` — may appear lexically inside a
lock region.  Layouts are built and converted *outside* the cache lock
and installed under it; this rule keeps that invariant machine-checked.

Suppress either rule with ``# recheck-lint: allow(lock-order)`` /
``allow(heavy-work)`` on the offending line.
"""

from __future__ import annotations

import ast

from repro.analysis.common import ClassInfo, Module, Violation
from repro.analysis.order import (
    HEAVY_CALL_ATTRS,
    HEAVY_CALL_NAMES,
    LOCK_RANKS,
    LOCK_RANKS_BY_ATTR,
)

ORDER_RULE = "lock-order"
HEAVY_RULE = "heavy-work"


def _module_ranks(module: Module) -> dict[str, int]:
    """``RECHECK_LOCK_RANKS = {"Class._attr": rank}`` module extension."""
    for stmt in module.tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == "RECHECK_LOCK_RANKS"
        ):
            try:
                value = ast.literal_eval(stmt.value)
            except (ValueError, SyntaxError):
                return {}
            if isinstance(value, dict):
                return {str(key): int(rank) for key, rank in value.items()}
    return {}


class _Scanner:
    def __init__(self, module: Module, info: ClassInfo, extra_ranks: dict[str, int]):
        self.module = module
        self.info = info
        self.extra_ranks = extra_ranks
        self.violations: list[Violation] = []

    # -- rank resolution ----------------------------------------------------
    def _rank_of(self, item: ast.withitem) -> tuple[str, int | None] | None:
        """(display name, rank) of a ``with`` item acquiring a lock, or None."""
        expr = item.context_expr
        if not isinstance(expr, ast.Attribute):
            return None
        attr = expr.attr
        if isinstance(expr.value, ast.Name) and expr.value.id == "self":
            attr = self.info.resolve_lock(attr)
            if attr not in self.info.lock_names() and not self._is_declared(attr):
                return None
            name = f"{self.info.name}.{attr}"
            rank = self.extra_ranks.get(name)
            if rank is None:
                rank = LOCK_RANKS.get((self.info.name, attr))
            if rank is None:
                rank = LOCK_RANKS_BY_ATTR.get(attr)
            return name, rank
        if attr in LOCK_RANKS_BY_ATTR:
            receiver = ast.unparse(expr.value)
            return f"{receiver}.{attr}", LOCK_RANKS_BY_ATTR[attr]
        return None

    def _is_declared(self, attr: str) -> bool:
        return (self.info.name, attr) in LOCK_RANKS or f"{self.info.name}.{attr}" in self.extra_ranks

    def _entry_stack(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[tuple[str, int | None]]:
        stack: list[tuple[str, int | None]] = []
        for attr in sorted(self.module.caller_holds(func.lineno)):
            attr = self.info.resolve_lock(attr)
            rank = LOCK_RANKS.get((self.info.name, attr), LOCK_RANKS_BY_ATTR.get(attr))
            stack.append((f"{self.info.name}.{attr}", rank))
        return stack

    # -- walking ------------------------------------------------------------
    def scan_function(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._scan_stmts(func.body, self._entry_stack(func))

    def _scan_stmts(self, stmts: list[ast.stmt], stack: list[tuple[str, int | None]]) -> None:
        for stmt in stmts:
            self._scan_stmt(stmt, stack)

    def _scan_stmt(self, stmt: ast.stmt, stack: list[tuple[str, int | None]]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.scan_function(stmt)
            return
        if isinstance(stmt, ast.ClassDef):
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            acquired: list[tuple[str, int | None]] = []
            for item in stmt.items:
                self._scan_expr(item.context_expr, stack)
                lock = self._rank_of(item)
                if lock is None:
                    continue
                self._check_order(lock, stack + acquired, stmt.lineno)
                acquired.append(lock)
            self._scan_stmts(stmt.body, stack + acquired)
            return
        for value in ast.iter_child_nodes(stmt):
            if isinstance(value, ast.stmt):
                self._scan_stmt(value, stack)
            elif isinstance(value, ast.expr):
                self._scan_expr(value, stack)
            elif isinstance(value, ast.excepthandler):
                self._scan_stmts(value.body, stack)

    def _check_order(
        self,
        lock: tuple[str, int | None],
        held: list[tuple[str, int | None]],
        line: int,
    ) -> None:
        name, rank = lock
        if rank is None or self.module.allows(line, ORDER_RULE):
            return
        for held_name, held_rank in held:
            if held_name == name or held_rank is None:
                continue
            if rank <= held_rank:
                self.violations.append(
                    Violation(
                        rule=ORDER_RULE,
                        path=str(self.module.path),
                        line=line,
                        message=(
                            f"acquiring {name} (rank {rank}) while holding "
                            f"{held_name} (rank {held_rank}); ranks must strictly increase"
                        ),
                    )
                )
                return

    def _scan_expr(self, expr: ast.expr, stack: list[tuple[str, int | None]]) -> None:
        if not stack:
            return
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name is None or self.module.allows(node.lineno, HEAVY_RULE):
                continue
            self.violations.append(
                Violation(
                    rule=HEAVY_RULE,
                    path=str(self.module.path),
                    line=node.lineno,
                    message=(
                        f"call to {name}() inside a lock region "
                        f"(holding {', '.join(n for n, _ in stack)}); "
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


def check(modules: list[Module], classes: dict[str, ClassInfo], graph=None) -> list[Violation]:
    del graph
    violations: list[Violation] = []
    ranks_by_module = {id(module): _module_ranks(module) for module in modules}
    for info in classes.values():
        extra = ranks_by_module.get(id(info.module), {})
        for stmt in info.node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scanner = _Scanner(info.module, info, extra)
                scanner.scan_function(stmt)
                violations.extend(scanner.violations)
    return violations
