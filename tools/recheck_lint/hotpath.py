"""Rule ``hotpath``: keep the batched pipeline free of per-row Python work.

The batched executor exists because per-row Python iteration is the
throughput cliff the benchmarks measure (a ~0.97x Symantec regression,
recorded in CHANGES.md, was exactly one of these loops sneaking back in).
This rule walks the project call graph from the vectorized roots declared in
:data:`tools.recheck_lint.contracts.HOT_PATH_ROOTS` (extendable per module with a
``RECHECK_HOTPATH_ROOTS`` literal) and flags any *reachable* function that:

* materializes rows from batches (``to_rows``/``iter_rows`` calls,
  the ``rows_from_batches`` bridge);
* iterates records in Python (``for ... in zip(*cols)`` row transposition,
  looping over ``.column()``/``.to_rows()``);
* builds a dict per record inside a loop;
* round-trips an array through Python lists (``.tolist()``/``np.fromiter``)
  or gathers elements one by one (``[col[i] for i in idx]``);
* interprets striped repetition/definition levels record by record
  (``.record_entries()`` inside a loop) — the nested-predicate vectorizer
  evaluates the entry arrays wholesale, so a per-record level walk on the hot
  path means a nested column fell off the vectorized plan.

Audited per-row paths opt out with ``# rowwise-fallback: reason``:
on a ``def`` line it prunes the function *and everything only reachable
through it* from the walk; on a flagged line it blesses that one site.
``# recheck-lint: allow(hotpath)`` works site-level as well.
"""

from __future__ import annotations

import ast
import re
from collections import deque

from .callgraph import CallGraph, build_call_graph
from .common import ClassInfo, Module, Violation
from .contracts import HOT_PATH_ROOTS

RULE = "hotpath"

_FALLBACK_RE = re.compile(r"rowwise-fallback:")

#: attribute calls that materialize per-row Python objects from a batch
_ROW_MATERIALIZE_ATTRS = frozenset({"to_rows", "iter_rows"})

#: attribute calls that round-trip array data through Python lists
_LIST_ROUNDTRIP_ATTRS = frozenset({"tolist", "fromiter"})

#: top-level bridge function from the batch world to rows
_ROW_BRIDGE_NAMES = frozenset({"rows_from_batches"})

#: iterating a call to one of these attrs walks records one by one
_ROW_ITER_ATTRS = frozenset({"column", "to_rows", "iter_rows"})

#: per-record striped level interpretation (Dremel finite-state walk)
_LEVEL_WALK_ATTRS = frozenset({"record_entries"})


def has_fallback(comment: str) -> bool:
    return bool(_FALLBACK_RE.search(comment))


def _module_roots(module: Module) -> list[str]:
    """``RECHECK_HOTPATH_ROOTS = ["corpus_batch_root"]`` extension."""
    for stmt in module.tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == "RECHECK_HOTPATH_ROOTS"
        ):
            try:
                value = ast.literal_eval(stmt.value)
            except (ValueError, SyntaxError):
                return []
            if isinstance(value, (list, tuple)):
                return [str(name) for name in value]
    return []


def reachable_functions(graph: CallGraph, modules: list[Module]) -> dict[str, str]:
    """fid -> root display it is reachable from (first discovery wins).

    Functions whose ``def`` line carries ``# rowwise-fallback:`` are pruned:
    neither they nor anything reachable only through them is visited.
    """
    roots: list[str] = list(HOT_PATH_ROOTS)
    for module in modules:
        roots.extend(_module_roots(module))

    def pruned(fid: str) -> bool:
        info = graph.functions[fid]
        return has_fallback(info.module.comment(info.node.lineno))

    origin: dict[str, str] = {}
    queue: deque[str] = deque()
    for root in roots:
        for fid in graph.by_name(root):
            if fid not in origin and not pruned(fid):
                origin[fid] = graph.functions[fid].display
                queue.append(fid)
    while queue:
        fid = queue.popleft()
        for callee in sorted(graph.edges.get(fid, ())):
            if callee in origin or callee not in graph.functions or pruned(callee):
                continue
            origin[callee] = origin[fid]
            queue.append(callee)
    return origin


# ---------------------------------------------------------------------------
# Per-function row-wise pattern detection
# ---------------------------------------------------------------------------
def _iter_is_rowwise(node: ast.expr) -> str | None:
    """Why iterating this expression walks rows, or None."""
    for inner in ast.walk(node):
        if not isinstance(inner, ast.Call):
            continue
        if isinstance(inner.func, ast.Name) and inner.func.id == "zip":
            if any(isinstance(arg, ast.Starred) for arg in inner.args):
                return "transposes columns into rows with zip(*...)"
        if isinstance(inner.func, ast.Attribute) and inner.func.attr in _ROW_ITER_ATTRS:
            return f"iterates .{inner.func.attr}() record by record"
    return None


def _gather_subscript(comp: ast.ListComp) -> bool:
    """``[values[i] for i in idx]`` — an element-at-a-time Python gather.

    Only data gathers count: the subscripted value must be a local collection
    (``values[i]``) or a nested subscript (``self._columns[f][i]``).  An
    attribute subscript like ``self._field_index[f]`` is a per-*field*
    metadata lookup, not per-row work.
    """
    if len(comp.generators) != 1 or comp.generators[0].ifs:
        return False
    target = comp.generators[0].target
    if not isinstance(target, ast.Name):
        return False
    elt = comp.elt
    return (
        isinstance(elt, ast.Subscript)
        and isinstance(elt.slice, ast.Name)
        and elt.slice.id == target.id
        and isinstance(elt.value, (ast.Name, ast.Subscript))
    )


def _is_chunk_loop(node: ast.For | ast.AsyncFor) -> bool:
    """``for start in range(0, n, batch_size)`` — iterates chunks, not rows."""
    call = node.iter
    return (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "range"
        and len(call.args) == 3
    )


def rowwise_findings(func: ast.AST) -> list[tuple[int, str]]:
    """(line, message) for every row-wise pattern in one function body."""
    findings: list[tuple[int, str]] = []
    loop_depth = 0

    def visit(node: ast.AST) -> None:
        nonlocal loop_depth
        entered_loop = isinstance(node, (ast.For, ast.AsyncFor)) and not _is_chunk_loop(
            node
        )
        if isinstance(node, (ast.For, ast.AsyncFor)):
            reason = _iter_is_rowwise(node.iter)
            if reason is not None:
                findings.append((node.lineno, f"per-row loop: {reason}"))
        if entered_loop:
            loop_depth += 1
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute):
                attr = node.func.attr
                if attr in _ROW_MATERIALIZE_ATTRS:
                    findings.append(
                        (node.lineno, f".{attr}() materializes Python rows from a batch")
                    )
                elif attr in _LIST_ROUNDTRIP_ATTRS:
                    findings.append(
                        (
                            node.lineno,
                            f".{attr}() round-trips array data through Python lists",
                        )
                    )
                elif attr in _LEVEL_WALK_ATTRS and loop_depth > 0:
                    findings.append(
                        (
                            node.lineno,
                            f".{attr}() interprets striped levels record by record "
                            "inside a loop",
                        )
                    )
            elif isinstance(node.func, ast.Name) and node.func.id in _ROW_BRIDGE_NAMES:
                findings.append(
                    (node.lineno, f"{node.func.id}() crosses into the row-at-a-time path")
                )
        if loop_depth > 0 and isinstance(node, (ast.Dict, ast.DictComp)):
            findings.append((node.lineno, "builds a dict per record inside a loop"))
        if isinstance(node, ast.ListComp) and _gather_subscript(node):
            findings.append(
                (node.lineno, "gathers elements one at a time in a Python comprehension")
            )
        for child in ast.iter_child_nodes(node):
            visit(child)
        if entered_loop:
            loop_depth -= 1

    for child in ast.iter_child_nodes(func):
        visit(child)
    return findings


def check(
    modules: list[Module],
    classes: dict[str, ClassInfo],
    graph: CallGraph | None = None,
) -> list[Violation]:
    if graph is None:
        graph = build_call_graph(modules, classes)
    origin = reachable_functions(graph, modules)
    violations: list[Violation] = []
    for fid, root in sorted(origin.items()):
        info = graph.functions[fid]
        for line, message in rowwise_findings(info.node):
            comment = info.module.comment(line)
            if has_fallback(comment) or info.module.allows(line, RULE):
                continue
            violations.append(
                Violation(
                    rule=RULE,
                    path=str(info.module.path),
                    line=line,
                    message=(
                        f"{info.display} is on the vectorized hot path "
                        f"(reachable from {root}) but {message} — vectorize or "
                        "annotate with # rowwise-fallback: <reason>"
                    ),
                )
            )
    return violations
