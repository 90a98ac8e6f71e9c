"""Rule ``raise-flow``.

``raise-flow`` infers, for every project function, the transitive set of
:class:`~repro.core.errors.ReCacheError` subclasses it may raise: direct
``raise`` statements and ``# may-raise:`` site annotations seed the sets,
call edges from the project :mod:`tools.recheck_lint.callgraph` propagate them,
and ``except`` clauses narrow them — an ``except`` catches the matching
subset (subclasses included), a bare ``raise``/``raise exc`` in the handler
re-raises exactly what it caught, and raises *inside* handler bodies escape
the try that owns the handler.  The resulting escape sets are checked against
the declared containment contracts
(:data:`tools.recheck_lint.contracts.RAISE_CONTRACTS`, extendable per module with
a ``RECHECK_RAISE_CONTRACTS`` literal): a contracted function whose inferred
set exceeds its declaration is flagged at its ``def`` line.

Known over/under-approximations, all deliberate:

* calls through locals/parameters with no annotation contribute nothing
  (the call graph reports them as warnings, not silent holes);
* a callable passed as an argument (worker targets, callbacks) is not a call
  edge — on this tree those run on other threads behind their own contracts;
* narrowing is type-based, not path-sensitive: a conditional re-raise counts
  as always re-raising (escape sets only ever over-approximate).

Suppress the rule per line with ``# recheck-lint: allow(raise-flow)``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from .callgraph import CallGraph, build_call_graph, parse_may_raise
from .common import ClassInfo, Module, Violation
from .contracts import RAISE_CONTRACTS

RULE = "raise-flow"

#: error taxonomy root: every class transitively deriving from it is tracked
TAXONOMY_ROOT = "ReCacheError"

#: handler types that catch the whole taxonomy
_CATCH_ALL_NAMES = frozenset({"Exception", "BaseException", TAXONOMY_ROOT})


# ---------------------------------------------------------------------------
# Error taxonomy
# ---------------------------------------------------------------------------
def error_taxonomy(classes: dict[str, ClassInfo]) -> dict[str, frozenset[str]]:
    """name -> descendants (self included) for every ReCacheError subclass."""

    def reaches_root(name: str, seen: frozenset[str]) -> bool:
        if name == TAXONOMY_ROOT:
            return True
        info = classes.get(name)
        if info is None or name in seen:
            return False
        return any(
            base == TAXONOMY_ROOT or reaches_root(base, seen | {name})
            for base in info.bases
        )

    members = {name for name in classes if reaches_root(name, frozenset())}

    def ancestors(name: str) -> set[str]:
        out: set[str] = set()
        stack = [name]
        while stack:
            info = classes.get(stack.pop())
            if info is None:
                continue
            for base in info.bases:
                if base in members and base not in out:
                    out.add(base)
                    stack.append(base)
        return out

    descendants: dict[str, set[str]] = {name: {name} for name in members}
    for name in members:
        for ancestor in ancestors(name):
            descendants[ancestor].add(name)
    return {name: frozenset(desc) for name, desc in descendants.items()}


def _expand(
    catch_names: tuple[str, ...] | None,
    taxonomy: dict[str, frozenset[str]],
    universe: frozenset[str],
) -> frozenset[str]:
    """Taxonomy members caught by one ``except`` clause."""
    if catch_names is None:
        return universe
    caught: set[str] = set()
    for name in catch_names:
        if name in _CATCH_ALL_NAMES:
            return universe
        caught |= taxonomy.get(name, frozenset())
    return frozenset(caught)


# ---------------------------------------------------------------------------
# Per-function raise sources (with their protecting try frames)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class _Frame:
    """One ``try`` protecting a source: its handlers, in order."""

    #: (caught type names or None for bare except, handler re-raises)
    handlers: tuple[tuple[tuple[str, ...] | None, bool], ...]


@dataclass
class _Source:
    kind: str  # "raise" | "call"
    data: object  # frozenset[str] for raises, ast.Call for calls
    line: int
    chain: tuple[_Frame, ...]  # innermost-first protecting frames


def _catch_names(handler: ast.excepthandler) -> tuple[str, ...] | None:
    node = handler.type
    if node is None:
        return None
    elts = node.elts if isinstance(node, ast.Tuple) else [node]
    names = []
    for elt in elts:
        if isinstance(elt, ast.Name):
            names.append(elt.id)
        elif isinstance(elt, ast.Attribute):
            names.append(elt.attr)
    return tuple(names)


def _handler_reraises(handler: ast.excepthandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            if node.exc is None:
                return True
            if (
                isinstance(node.exc, ast.Name)
                and handler.name is not None
                and node.exc.id == handler.name
            ):
                return True
    return False


def _frame_of(stmt: ast.Try) -> _Frame:
    return _Frame(
        handlers=tuple(
            (_catch_names(handler), _handler_reraises(handler))
            for handler in stmt.handlers
        )
    )


def _raised_name(node: ast.Raise) -> str | None:
    exc = node.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Name):
        return exc.id
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return None


def collect_sources(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    taxonomy: dict[str, frozenset[str]],
) -> list[_Source]:
    """Every raise site and call site of ``func`` with its try-frame chain."""
    sources: list[_Source] = []

    def walk_stmts(stmts, chain, handler_var):
        for stmt in stmts:
            walk_stmt(stmt, chain, handler_var)

    def collect_calls(expr: ast.expr, chain) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                sources.append(_Source("call", node, node.lineno, chain))

    def walk_stmt(stmt, chain, handler_var):
        if isinstance(stmt, ast.Try):
            frame = _frame_of(stmt)
            walk_stmts(stmt.body, (frame,) + chain, handler_var)
            walk_stmts(stmt.orelse, chain, handler_var)
            for handler in stmt.handlers:
                walk_stmts(handler.body, chain, handler.name or handler_var)
            walk_stmts(stmt.finalbody, chain, handler_var)
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs are merged into the enclosing function; their
            # lexical try context matches how this tree invokes them.
            walk_stmts(stmt.body, chain, None)
            return
        if isinstance(stmt, ast.ClassDef):
            return
        if isinstance(stmt, ast.Raise):
            is_reraise = stmt.exc is None or (
                isinstance(stmt.exc, ast.Name) and stmt.exc.id == handler_var
            )
            if not is_reraise:
                name = _raised_name(stmt)
                if name is not None and name in taxonomy:
                    sources.append(
                        _Source("raise", frozenset({name}), stmt.lineno, chain)
                    )
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                walk_stmt(child, chain, handler_var)
            elif isinstance(child, ast.expr):
                collect_calls(child, chain)
            elif isinstance(child, ast.withitem):
                collect_calls(child.context_expr, chain)
            elif isinstance(child, ast.excepthandler):  # pragma: no cover
                walk_stmts(child.body, chain, child.name or handler_var)

    walk_stmts(func.body, (), None)
    return sources


def _escaped(
    raised: frozenset[str],
    chain: tuple[_Frame, ...],
    taxonomy: dict[str, frozenset[str]],
    universe: frozenset[str],
) -> frozenset[str]:
    """What survives the protecting try frames, innermost first."""
    for frame in chain:
        if not raised:
            break
        escaping: set[str] = set()
        remaining = set(raised)
        for catch_names, reraises in frame.handlers:
            caught = remaining & _expand(catch_names, taxonomy, universe)
            remaining -= caught
            if reraises:
                escaping |= caught
        raised = frozenset(escaping | remaining)
    return raised


# ---------------------------------------------------------------------------
# Fixed-point escape sets over the call graph
# ---------------------------------------------------------------------------
def compute_escapes(
    graph: CallGraph, taxonomy: dict[str, frozenset[str]]
) -> dict[str, frozenset[str]]:
    """fid -> transitive ReCacheError escape set, via fixed-point iteration."""
    universe = frozenset(taxonomy)
    sources = {
        fid: collect_sources(info.node, taxonomy)
        for fid, info in graph.functions.items()
    }
    escapes: dict[str, frozenset[str]] = {fid: frozenset() for fid in graph.functions}
    changed = True
    while changed:
        changed = False
        for fid, function_sources in sources.items():
            out: set[str] = set()
            for source in function_sources:
                if source.kind == "raise":
                    raised = source.data
                else:
                    call = source.data
                    raised = parse_may_raise(
                        graph.functions[fid].module.comment(source.line)
                    ) & universe
                    for target in graph.call_targets.get(id(call), ()):
                        raised |= escapes[target]
                out |= _escaped(frozenset(raised), source.chain, taxonomy, universe)
            new = frozenset(out)
            if new != escapes[fid]:
                escapes[fid] = new
                changed = True
    return escapes


def compute_raise_sets(
    modules: list[Module],
    classes: dict[str, ClassInfo],
    graph: CallGraph | None = None,
) -> dict[str, list[str]]:
    """display name -> sorted inferred escape set (non-empty only).

    This is what the CI report archives: the per-function exception sets the
    contract check ran against, unioned across same-named definitions.
    """
    if graph is None:
        graph = build_call_graph(modules, classes)
    taxonomy = error_taxonomy(classes)
    escapes = compute_escapes(graph, taxonomy)
    merged: dict[str, set[str]] = {}
    for fid, names in escapes.items():
        if names:
            merged.setdefault(graph.functions[fid].display, set()).update(names)
    return {display: sorted(names) for display, names in sorted(merged.items())}


# ---------------------------------------------------------------------------
# Contract check
# ---------------------------------------------------------------------------
def _module_contracts(module: Module) -> dict[str, frozenset[str]]:
    """``RECHECK_RAISE_CONTRACTS = {"Class.method": ["Err"]}`` extension."""
    for stmt in module.tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == "RECHECK_RAISE_CONTRACTS"
        ):
            try:
                value = ast.literal_eval(stmt.value)
            except (ValueError, SyntaxError):
                return {}
            if isinstance(value, dict):
                return {
                    str(name): frozenset(str(e) for e in errors)
                    for name, errors in value.items()
                }
    return {}


def merged_contracts(modules: list[Module]) -> dict[str, frozenset[str]]:
    contracts = dict(RAISE_CONTRACTS)
    for module in modules:
        contracts.update(_module_contracts(module))
    return contracts


def check(
    modules: list[Module],
    classes: dict[str, ClassInfo],
    graph: CallGraph | None = None,
) -> list[Violation]:
    if graph is None:
        graph = build_call_graph(modules, classes)
    taxonomy = error_taxonomy(classes)
    escapes = compute_escapes(graph, taxonomy)
    violations: list[Violation] = []
    for qualname, allowed in sorted(merged_contracts(modules).items()):
        for fid in graph.by_name(qualname):
            info = graph.functions[fid]
            leaked = escapes[fid] - allowed
            if not leaked or info.module.allows(info.node.lineno, RULE):
                continue
            allowed_text = ", ".join(sorted(allowed)) if allowed else "nothing"
            violations.append(
                Violation(
                    rule=RULE,
                    path=str(info.module.path),
                    line=info.node.lineno,
                    message=(
                        f"{info.display} may raise {', '.join(sorted(leaked))} — "
                        f"escapes its declared containment boundary "
                        f"(contract allows: {allowed_text})"
                    ),
                )
            )
    return violations
