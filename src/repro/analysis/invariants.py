"""Render the README "Concurrency invariants" section from live declarations.

The table is generated from the actual ``GUARDED_BY``/``LOCK_ALIASES``
class attributes and :data:`repro.analysis.order.LOCK_RANKS`, so the doc
cannot drift from the code: a test re-renders this section and compares
it to the block between the README's ``invariants:begin``/``end``
markers.  Regenerate with ``python -m repro.analysis.invariants``.
"""

from __future__ import annotations

from repro.analysis.order import LOCK_RANKS

BEGIN_MARKER = "<!-- invariants:begin (generated by `python -m repro.analysis.invariants`) -->"
END_MARKER = "<!-- invariants:end -->"

CONTRACTS_BEGIN_MARKER = (
    "<!-- contracts:begin (generated by `python -m repro.analysis.invariants`) -->"
)
CONTRACTS_END_MARKER = "<!-- contracts:end -->"


def _lock_classes() -> list[type]:
    from repro.core.cache_manager import ReCache
    from repro.core.circuit_breaker import SourceCircuitBreaker
    from repro.core.shm_registry import ShmRegistry
    from repro.engine.procpool import ProcessExecutionPool
    from repro.engine.server import EngineServer
    from repro.faults.plan import _InjectorState

    return [
        EngineServer,
        ReCache,
        SourceCircuitBreaker,
        _InjectorState,
        ShmRegistry,
        ProcessExecutionPool,
    ]


def _merged_guarded(cls: type) -> dict[str, str]:
    guarded: dict[str, str] = {}
    for base in reversed(cls.__mro__):
        guarded.update(getattr(base, "GUARDED_BY", {}))
    return guarded


def _merged_aliases(cls: type) -> dict[str, str]:
    aliases: dict[str, str] = {}
    for base in reversed(cls.__mro__):
        aliases.update(getattr(base, "LOCK_ALIASES", {}))
    return aliases


def render_invariants_markdown() -> str:
    """The generated section body (without the begin/end markers)."""
    lines = [
        "Lock ranks must strictly increase along any nested acquisition",
        "chain; equal ranks never nest.  Guarded fields may only be touched",
        "under their lock, per the `GUARDED_BY` declarations checked by",
        "`recheck-lint`; deliberate lock-free reads are marked",
        "`# unguarded-read:` inline.",
        "",
        "| Lock | Rank | Guards |",
        "|---|---|---|",
    ]
    for cls in _lock_classes():
        guarded = _merged_guarded(cls)
        aliases = _merged_aliases(cls)
        by_lock: dict[str, list[str]] = {}
        for field_name, lock in sorted(guarded.items()):
            by_lock.setdefault(aliases.get(lock, lock), []).append(field_name)
        for lock in sorted(by_lock):
            rank = LOCK_RANKS.get((cls.__name__, lock))
            rank_text = "—" if rank is None else str(rank)
            alias_names = sorted(a for a, target in aliases.items() if target == lock)
            label = f"`{cls.__name__}.{lock}`"
            if alias_names:
                label += " (aliased by " + ", ".join(f"`{a}`" for a in alias_names) + ")"
            fields = ", ".join(f"`{name}`" for name in by_lock[lock])
            lines.append(f"| {label} | {rank_text} | {fields} |")
    return "\n".join(lines) + "\n"


def render_contracts_markdown() -> str:
    """The generated "Static verification" section body (without markers)."""
    from repro.analysis.contracts import HOT_PATH_ROOTS, RAISE_CONTRACTS

    lines = [
        "The interprocedural `raise-flow` rule infers, over the project call",
        "graph, which `ReCacheError` subclasses can escape each function and",
        "checks the entry points below against their declared containment",
        "contracts (`repro/analysis/contracts.py`).  The companion `hotpath`",
        "rule walks the same graph from the vectorized roots and flags any",
        "reachable per-row Python work not blessed by a `# rowwise-fallback:`",
        "annotation.",
        "",
        "| Entry point | May raise (contract) |",
        "|---|---|",
    ]
    for qualname, allowed in sorted(RAISE_CONTRACTS.items()):
        errors = ", ".join(f"`{name}`" for name in sorted(allowed)) or "nothing"
        lines.append(f"| `{qualname}` | {errors} |")
    lines += [
        "",
        "Vectorized hot-path roots (everything reachable from these must stay",
        "free of per-row Python iteration):",
        "",
    ]
    for root in HOT_PATH_ROOTS:
        lines.append(f"- `{root}`")
    return "\n".join(lines) + "\n"


def main() -> int:
    print(BEGIN_MARKER)
    print(render_invariants_markdown(), end="")
    print(END_MARKER)
    print()
    print(CONTRACTS_BEGIN_MARKER)
    print(render_contracts_markdown(), end="")
    print(CONTRACTS_END_MARKER)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
