"""Whole-project call-graph construction for the interprocedural rules.

Builds a conservative static call graph over the already-parsed
:class:`tools.recheck_lint.common.Module` trees and the classes collected by
:func:`tools.recheck_lint.common.collect_classes`:

* plain-name calls resolve to the calling module's own top-level function of
  that name when it defines one (Python's actual binding rule), otherwise to
  every project top-level function of that name (the imported case); for
  class names, to the class's ``__init__``;
* ``self.m()`` resolves through the receiver class's base chain (the same
  simple-name base resolution ``collect_classes`` uses), ``super().m()``
  through the bases only, and ``ClassName.m()`` through that class;
* any other ``obj.m()`` falls back to *every* project class defining ``m``
  plus every top-level function named ``m`` (the ``module.func()`` idiom) —
  over-approximate on purpose: a missed edge is a false negative for the
  raise-flow rule, a spurious edge merely widens an inferred set;
* calls through locals/parameters (dispatch tables, injected callables) are
  statically opaque: the explicit ``# dynamic-call: target[, target2]``
  comment adds the named edges, and ``# may-raise: Error[, Error2]`` seeds
  the raise-flow analysis at the call site instead.  An opaque call with
  neither annotation degrades to a *warning* (reported in the JSON report,
  never a violation) so the hole is visible rather than silently assumed
  safe.

Functions nested inside another function are merged into their enclosing
function: their calls and raises belong to the parent's dynamic extent
(worker callbacks, closure helpers), and calls *to* them by name are
internal and resolve to the parent itself.
"""

from __future__ import annotations

import ast
import builtins
import re
from dataclasses import dataclass, field

from .common import ClassInfo, Module

_DYNAMIC_CALL_RE = re.compile(r"dynamic-call:\s*([\w.]+(?:\s*,\s*[\w.]+)*)")
_MAY_RAISE_RE = re.compile(r"may-raise:\s*(\w+(?:\s*,\s*\w+)*)")

_BUILTIN_NAMES = frozenset(dir(builtins))


def parse_may_raise(comment: str) -> frozenset[str]:
    """Error class names declared by a ``# may-raise:`` comment, if any."""
    match = _MAY_RAISE_RE.search(comment)
    if not match:
        return frozenset()
    return frozenset(part.strip() for part in match.group(1).split(","))


def parse_dynamic_call(comment: str) -> tuple[str, ...]:
    """Call targets declared by a ``# dynamic-call:`` comment, if any."""
    match = _DYNAMIC_CALL_RE.search(comment)
    if not match:
        return ()
    return tuple(part.strip() for part in match.group(1).split(","))


@dataclass
class FunctionInfo:
    """One project function or method (nested defs merged into it)."""

    fid: str  #: unique id: "<path>::<display>"
    display: str  #: "Class.method" for methods, bare name for functions
    simple: str  #: method/function name without the class
    class_name: str | None
    module: Module
    node: ast.FunctionDef | ast.AsyncFunctionDef
    nested_names: set[str] = field(default_factory=set)


class CallGraph:
    """Functions, resolved call edges and warnings."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        #: caller fid -> callee fids (deduplicated)
        self.edges: dict[str, set[str]] = {}
        #: id(ast.Call) -> resolved callee fids for that exact call site
        self.call_targets: dict[int, tuple[str, ...]] = {}
        #: "path:line: message" for statically opaque, unannotated calls
        self.warnings: list[str] = []
        self._display_index: dict[str, list[str]] = {}
        self._simple_methods: dict[str, list[str]] = {}
        self._simple_functions: dict[str, list[str]] = {}
        self._method_index: dict[tuple[str, str], str] = {}
        self._module_functions: dict[tuple[str, str], str] = {}
        self._classes: dict[str, ClassInfo] = {}

    # -- lookup --------------------------------------------------------------
    def by_display(self, display: str) -> list[str]:
        """fids whose display name is exactly ``display``."""
        return list(self._display_index.get(display, ()))

    def by_name(self, name: str) -> list[str]:
        """fids matching ``name``: dotted = display match, bare = any simple
        name (top-level functions and methods alike)."""
        if "." in name:
            return self.by_display(name)
        return list(self._simple_functions.get(name, ())) + list(
            self._simple_methods.get(name, ())
        )

    def resolve_method(self, class_name: str, method: str) -> str | None:
        """fid of ``method`` on ``class_name`` or its base chain, else None."""
        return self._resolve_method(class_name, method, frozenset())

    def _resolve_method(self, class_name: str, method: str, seen: frozenset) -> str | None:
        fid = self._method_index.get((class_name, method))
        if fid is not None:
            return fid
        info = self._classes.get(class_name)
        if info is None:
            return None
        for base in info.bases:
            if base in seen:
                continue
            found = self._resolve_method(base, method, seen | {class_name})
            if found is not None:
                return found
        return None

    # -- construction --------------------------------------------------------
    def _add_function(self, info: FunctionInfo) -> None:
        self.functions[info.fid] = info
        self._display_index.setdefault(info.display, []).append(info.fid)
        if info.class_name is None:
            self._simple_functions.setdefault(info.simple, []).append(info.fid)
            self._module_functions[(str(info.module.path), info.simple)] = info.fid
        else:
            self._simple_methods.setdefault(info.simple, []).append(info.fid)
            self._method_index[(info.class_name, info.simple)] = info.fid


def build_call_graph(modules: list[Module], classes: dict[str, ClassInfo]) -> CallGraph:
    graph = CallGraph()
    graph._classes = classes
    for module in modules:
        _collect_functions(graph, module)
    seen_warnings: set[tuple[str, int, str]] = set()
    for info in graph.functions.values():
        _resolve_calls(graph, info, seen_warnings)
    graph.warnings.sort()
    return graph


def _collect_functions(graph: CallGraph, module: Module) -> None:
    for stmt in module.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _add(graph, module, stmt, class_name=None)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _add(graph, module, stmt, class_name=node.name)


def _add(
    graph: CallGraph,
    module: Module,
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    class_name: str | None,
) -> None:
    display = f"{class_name}.{node.name}" if class_name else node.name
    nested = {
        inner.name
        for inner in ast.walk(node)
        if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)) and inner is not node
    }
    graph._add_function(
        FunctionInfo(
            fid=f"{module.path}::{display}",
            display=display,
            simple=node.name,
            class_name=class_name,
            module=module,
            node=node,
            nested_names=nested,
        )
    )


def _resolve_calls(
    graph: CallGraph, info: FunctionInfo, seen_warnings: set[tuple[str, int, str]]
) -> None:
    edges = graph.edges.setdefault(info.fid, set())
    for call in ast.walk(info.node):
        if not isinstance(call, ast.Call):
            continue
        comment = info.module.comment(call.lineno)
        targets = list(_targets_for(graph, info, call))
        for token in parse_dynamic_call(comment):
            named = graph.by_name(token)
            if named:
                targets.extend(named)
            else:
                _warn(
                    graph,
                    seen_warnings,
                    info,
                    call.lineno,
                    token,
                    f"dynamic-call target {token!r} matches no project function",
                )
        if targets:
            unique = tuple(dict.fromkeys(targets))
            graph.call_targets[id(call)] = unique
            edges.update(unique)
        elif _is_opaque(graph, info, call) and not parse_may_raise(comment):
            name = call.func.id if isinstance(call.func, ast.Name) else "?"
            _warn(
                graph,
                seen_warnings,
                info,
                call.lineno,
                name,
                f"call to {name}() is statically opaque — raise-flow assumes it "
                "raises nothing; annotate with # dynamic-call: or # may-raise: "
                "if that is wrong",
            )


def _is_opaque(graph: CallGraph, info: FunctionInfo, call: ast.Call) -> bool:
    """True for an unresolved call through a local name (dispatch/callback).

    Constructor calls to known project classes are not opaque even when the
    class defines no ``__init__``: the callee is fully identified.
    """
    func = call.func
    return (
        isinstance(func, ast.Name)
        and func.id not in _BUILTIN_NAMES
        and func.id not in info.nested_names
        and func.id not in graph._classes
    )


def _warn(
    graph: CallGraph,
    seen: set[tuple[str, int, str]],
    info: FunctionInfo,
    line: int,
    name: str,
    message: str,
) -> None:
    key = (str(info.module.path), line, name)
    if key in seen:
        return
    seen.add(key)
    graph.warnings.append(f"{info.module.path}:{line}: in {info.display}: {message}")


def _targets_for(graph: CallGraph, info: FunctionInfo, call: ast.Call) -> list[str]:
    func = call.func
    if isinstance(func, ast.Name):
        name = func.id
        if name in graph._classes:
            init = graph.resolve_method(name, "__init__")
            post = graph.resolve_method(name, "__post_init__")
            return [fid for fid in (init, post) if fid is not None]
        local = graph._module_functions.get((str(info.module.path), name))
        if local is not None:
            return [local]
        if name in graph._simple_functions:
            return list(graph._simple_functions[name])
        return []
    if not isinstance(func, ast.Attribute):
        return []
    method = func.attr
    receiver = func.value
    if isinstance(receiver, ast.Name) and receiver.id == "self" and info.class_name:
        fid = graph.resolve_method(info.class_name, method)
        if fid is not None:
            return [fid]
    elif isinstance(receiver, ast.Name) and receiver.id in graph._classes:
        fid = graph.resolve_method(receiver.id, method)
        if fid is not None:
            return [fid]
    elif (
        isinstance(receiver, ast.Call)
        and isinstance(receiver.func, ast.Name)
        and receiver.func.id == "super"
        and info.class_name
    ):
        base_info = graph._classes.get(info.class_name)
        for base in base_info.bases if base_info else ():
            fid = graph.resolve_method(base, method)
            if fid is not None:
                return [fid]
        return []
    # Method-resolution fallback: every project definition of this name.
    return list(graph._simple_methods.get(method, ())) + list(
        graph._simple_functions.get(method, ())
    )
