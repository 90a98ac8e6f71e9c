"""Rule ``no-swallow``: except blocks contain faults, they never hide them.

Applies to modules that opt in with a ``# recheck-lint: check-no-swallow``
comment (the engine executor, session and server do).  Every ``except``
handler in such a module must produce an *outcome* for the caught
exception — one of:

* a ``raise`` (re-raise, or wrap in a typed error);
* a call to an audited containment sink, a function whose contract is to
  convert the fault into a degraded-but-correct result or a typed client
  failure (``_fail_execution``/``set_exception`` resolve futures
  exceptionally, ``quarantine``/``_quarantine_entry`` evict a poisoned
  cache entry, ``_degraded_raw_batches`` re-serves from the raw source,
  ``note_skipped_admission`` records a declined admission,
  ``record_failure`` feeds the circuit breaker).

A handler with neither is a swallowed fault: the failure-containment
design of this tree (retry / degrade / quarantine / shed, all typed) only
holds if no layer silently eats an exception on the way up.  Deliberate
exceptions carry ``# recheck-lint: allow(no-swallow)`` on the ``except``
line.  ``contextlib.suppress`` is invisible to this rule by design: it is
a ``with`` statement, and its explicitness is exactly the audited,
greppable act this rule wants to force.
"""

from __future__ import annotations

import ast

from repro.analysis.common import ClassInfo, Module, Violation

RULE = "no-swallow"
MARKER = "recheck-lint: check-no-swallow"

#: Audited containment sinks: calling one of these IS the exception's
#: outcome.  Extending this set is a reviewable act, not a loophole.
SINKS: frozenset[str] = frozenset(
    {
        "_fail_execution",
        "set_exception",
        "quarantine",
        "_quarantine_entry",
        "_degraded_raw_batches",
        "note_skipped_admission",
        "record_failure",
    }
)


def check(modules: list[Module], classes: dict[str, ClassInfo], graph=None) -> list[Violation]:
    del classes, graph
    violations: list[Violation] = []
    for module in modules:
        if not module.has_marker(MARKER):
            continue
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Try):
                for handler in node.handlers:
                    _check_handler(module, handler, violations)
    return violations


def _check_handler(
    module: Module, handler: ast.excepthandler, violations: list[Violation]
) -> None:
    if module.allows(handler.lineno, RULE):
        return
    if _has_outcome(handler):
        return
    caught = ast.unparse(handler.type) if handler.type is not None else "BaseException"
    violations.append(
        Violation(
            rule=RULE,
            path=str(module.path),
            line=handler.lineno,
            message=(
                f"except {caught}: swallows the exception — re-raise, wrap in "
                "a typed error, or route it through a containment sink "
                f"({', '.join(sorted(SINKS))})"
            ),
        )
    )


def _has_outcome(handler: ast.excepthandler) -> bool:
    """True when the handler re-raises or calls an audited sink."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name in SINKS:
                return True
    return False
