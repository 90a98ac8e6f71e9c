"""Rule ``shm-lifecycle``: no shared-memory segment without an unlink path.

POSIX shared memory outlives the process that created it: a segment that is
``create=True``-ed and never unlinked stays in ``/dev/shm`` until reboot.
This rule makes the pairing a machine-checked invariant in modules that
opt in with a ``# recheck-lint: check-shm-lifecycle`` comment: every
function containing a ``SharedMemory(..., create=True, ...)`` call must
also lexically contain an unlink path — a direct ``.unlink(...)`` call or
a call to one of the audited lifecycle sinks below (functions whose whole
job is closing + unlinking a segment).  Attach-only calls (no ``create``
keyword) are exempt: the creator owns the name.

Suppress a deliberate exception with ``# recheck-lint: allow(shm-lifecycle)``
on the creating line.
"""

from __future__ import annotations

import ast

from .common import ClassInfo, Module, Violation

RULE = "shm-lifecycle"
MARKER = "recheck-lint: check-shm-lifecycle"

#: Audited lifecycle sinks: calling one of these IS the unlink path.
#: Extending this set is a reviewable act, not a loophole.
SINKS: frozenset[str] = frozenset(
    {
        "_discard_segment",
        "retire",
        "unlink_all",
        "unlink",
    }
)


def check(modules: list[Module], classes: dict[str, ClassInfo], graph=None) -> list[Violation]:
    del classes, graph
    violations: list[Violation] = []
    for module in modules:
        if not module.has_marker(MARKER):
            continue
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _check_function(module, node, violations)
    return violations


def _check_function(
    module: Module,
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    violations: list[Violation],
) -> None:
    creations = [node for node in ast.walk(func) if _is_segment_creation(node)]
    if not creations:
        return
    if _has_unlink_path(func):
        return
    for creation in creations:
        if module.allows(creation.lineno, RULE):
            continue
        violations.append(
            Violation(
                rule=RULE,
                path=str(module.path),
                line=creation.lineno,
                message=(
                    f"{func.name} creates a shared-memory segment without a "
                    "paired unlink path — call .unlink() on a failure branch "
                    "or route the handle through a lifecycle sink "
                    f"({', '.join(sorted(SINKS))})"
                ),
            )
        )


def _is_segment_creation(node: ast.AST) -> bool:
    """A ``SharedMemory(...)`` call carrying ``create=True``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name != "SharedMemory":
        return False
    for keyword in node.keywords:
        if keyword.arg == "create":
            value = keyword.value
            return isinstance(value, ast.Constant) and value.value is True
    return False


def _has_unlink_path(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """True when the function lexically contains an audited unlink call."""
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        target = node.func
        name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
        if name in SINKS:
            return True
    return False
