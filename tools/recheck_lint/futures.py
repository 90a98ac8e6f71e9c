"""Rule ``future-resolution``: every per-query future reaches a terminal state.

Applies to modules that opt in with a ``# recheck-lint: check-futures``
comment (the engine server does).  Within such a module, any function that
*handles* futures — creates ``Future()`` or touches a ``.future``
attribute — is scanned intraprocedurally:

* the *live region* starts at the first ``Future()`` creation (or at
  function entry when live futures arrive via parameters, detected by
  ``.future`` access);
* inside the live region, every *risky* statement — a call to anything
  outside the audited-safe set, or a ``raise`` — must sit inside a
  ``try`` whose handler or ``finally`` resolves futures (calls one of the
  resolution sinks: ``set_exception`` or an audited settle/fail helper),
  because an exception escaping such a statement would otherwise leave
  clients blocked on futures that never complete;
* ``except``/``finally`` bodies are exempt (they *are* the cleanup), as
  are lines carrying ``# recheck-lint: allow(future-resolution)``.

The safe sets are deliberately small: bookkeeping/attribute calls that
cannot raise in practice, plus the resolution sinks
(:data:`RESOLUTION_SINKS`: the future setters and the server helpers
``_settle``/``_resolve_execution``/``_fail_execution``, whose own bodies
guarantee settlement) — marking a sink safe is an audited, reviewable act,
not a loophole.
"""

from __future__ import annotations

import ast

from .common import ClassInfo, Module, Violation

RULE = "future-resolution"
MARKER = "recheck-lint: check-futures"

#: Plain-name calls that cannot leave a future unresolved.
SAFE_NAMES: frozenset[str] = frozenset(
    {
        "Future", "len", "list", "tuple", "dict", "set", "iter", "range",
        "min", "max", "sum", "sorted", "enumerate", "zip", "id", "repr",
        "str", "int", "float", "bool", "isinstance", "getattr",
        "RuntimeError", "ValueError", "TypeError", "KeyError",
        # typed failure constructors fed straight into a resolution sink
        "DeadlineExceeded",
    }
)

#: Resolution sinks: the future's own terminal setters plus the server's
#: helpers that settle futures internally (each settles in a ``finally`` or
#: routes every failure to one that does).
RESOLUTION_SINKS: frozenset[str] = frozenset(
    {"set_result", "set_exception", "_settle", "_resolve_execution", "_fail_execution"}
)

#: Attribute (method) calls audited as safe: pure bookkeeping, lock/queue
#: primitives, and the resolution sinks.
SAFE_ATTRS: frozenset[str] = RESOLUTION_SINKS | frozenset(
    {
        "done", "cancelled", "cancel",
        "append", "extend", "pop", "popleft", "add", "discard", "get",
        "items", "keys", "values", "setdefault",
        "acquire", "release", "locked", "wait", "wait_for",
        "notify", "notify_all",
        "perf_counter", "monotonic",
    }
)


def check(modules: list[Module], classes: dict[str, ClassInfo], graph=None) -> list[Violation]:
    del classes, graph
    violations: list[Violation] = []
    for module in modules:
        if not module.has_marker(MARKER):
            continue
        for func in _functions(module.tree):
            _scan_function(module, func, violations)
    return violations


def _functions(tree: ast.Module) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Every function in the module, including methods and closures."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def _own_nodes(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[ast.AST]:
    """Nodes of ``func`` excluding nested function bodies (scanned separately)."""
    nodes: list[ast.AST] = []
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        nodes.append(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return nodes

def _creates_future(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Future"
    )


def _live_start(func: ast.FunctionDef | ast.AsyncFunctionDef) -> int | None:
    """First line at which unresolved futures exist, or None if never.

    A function that creates its own ``Future()`` goes live at the first
    creation; a function that *receives* live futures — it touches a
    ``.future`` attribute or calls a resolution sink without creating any —
    is live from its first statement.
    """
    handles = False
    first_creation: int | None = None
    for node in _own_nodes(func):
        if _creates_future(node) and (first_creation is None or node.lineno < first_creation):
            first_creation = node.lineno
        if isinstance(node, ast.Attribute) and node.attr == "future":
            handles = True
        if _is_resolver_call(node):
            handles = True
    if first_creation is not None:
        return first_creation
    if handles:
        return func.body[0].lineno if func.body else func.lineno
    return None


def _is_resolver_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in RESOLUTION_SINKS
    )


def _try_is_protecting(node: ast.Try) -> bool:
    cleanup: list[ast.stmt] = list(node.finalbody)
    for handler in node.handlers:
        cleanup.extend(handler.body)
    return any(
        _is_resolver_call(inner) for stmt in cleanup for inner in ast.walk(stmt)
    )


def _risky_call(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return None if func.id in SAFE_NAMES else func.id
    if isinstance(func, ast.Attribute):
        return None if func.attr in SAFE_ATTRS else func.attr
    return ast.unparse(func)


def _scan_function(
    module: Module,
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    violations: list[Violation],
) -> None:
    live_start = _live_start(func)
    if live_start is None:
        return
    _scan_stmts(module, func.name, func.body, live_start, False, False, violations)


def _scan_stmts(
    module: Module,
    func_name: str,
    stmts: list[ast.stmt],
    live_start: int,
    protected: bool,
    in_cleanup: bool,
    violations: list[Violation],
) -> None:
    for stmt in stmts:
        _scan_stmt(module, func_name, stmt, live_start, protected, in_cleanup, violations)


def _scan_stmt(
    module: Module,
    func_name: str,
    stmt: ast.stmt,
    live_start: int,
    protected: bool,
    in_cleanup: bool,
    violations: list[Violation],
) -> None:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return  # nested defs are scanned as their own handling functions
    if isinstance(stmt, ast.Try):
        body_protected = protected or _try_is_protecting(stmt)
        _scan_stmts(module, func_name, stmt.body, live_start, body_protected, in_cleanup, violations)
        _scan_stmts(module, func_name, stmt.orelse, live_start, body_protected, in_cleanup, violations)
        for handler in stmt.handlers:
            _scan_stmts(module, func_name, handler.body, live_start, protected, True, violations)
        _scan_stmts(module, func_name, stmt.finalbody, live_start, protected, True, violations)
        return
    if (
        isinstance(stmt, ast.Raise)
        and not (protected or in_cleanup)
        and stmt.lineno >= live_start
        and not module.allows(stmt.lineno, RULE)
    ):
        violations.append(
            Violation(
                rule=RULE,
                path=str(module.path),
                line=stmt.lineno,
                message=(
                    f"{func_name}: raise while futures are live and no "
                    "enclosing try resolves them (set_exception/settle)"
                ),
            )
        )
    if not (protected or in_cleanup):
        for expr in _direct_exprs(stmt):
            for node in _walk_pruned(expr):
                if not isinstance(node, ast.Call) or node.lineno < live_start:
                    continue
                name = _risky_call(node)
                if name is None or module.allows(node.lineno, RULE):
                    continue
                violations.append(
                    Violation(
                        rule=RULE,
                        path=str(module.path),
                        line=node.lineno,
                        message=(
                            f"{func_name}: call to {name}() while futures are live, "
                            "outside any try that resolves them on failure "
                            "(set_exception / settle sink in a handler or finally)"
                        ),
                    )
                )
    for value in ast.iter_child_nodes(stmt):
        if isinstance(value, ast.stmt):
            _scan_stmt(module, func_name, value, live_start, protected, in_cleanup, violations)
        elif isinstance(value, ast.excepthandler):  # pragma: no cover - Try handled above
            _scan_stmts(module, func_name, value.body, live_start, protected, True, violations)


def _direct_exprs(stmt: ast.stmt) -> list[ast.expr]:
    """The statement's own expressions, excluding nested statements."""
    exprs: list[ast.expr] = []
    for value in ast.iter_child_nodes(stmt):
        if isinstance(value, ast.expr):
            exprs.append(value)
        elif isinstance(value, ast.withitem):
            exprs.append(value.context_expr)
    return exprs


def _walk_pruned(expr: ast.expr) -> list[ast.AST]:
    """All nodes of ``expr`` except lambda bodies (deferred execution)."""
    nodes: list[ast.AST] = []
    stack: list[ast.AST] = [expr]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if isinstance(node, ast.Lambda):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return nodes
