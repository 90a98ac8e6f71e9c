"""Deterministic, seeded fault injection for the cache/serving stack.

See :mod:`repro.faults.plan` for the spec-string grammar and fault
taxonomy, and :mod:`repro.faults.runtime` for activation (the
``RECACHE_FAULTS`` env, or the :func:`activate` context manager).
"""

from repro.faults.plan import (
    KINDS,
    SCOPES,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    parse_fault_plan,
    parse_fault_spec,
)
from repro.faults.runtime import (
    activate,
    active_plan,
    injector_for,
    install,
    install_spec,
)

__all__ = [
    "KINDS",
    "SCOPES",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "activate",
    "active_plan",
    "injector_for",
    "install",
    "install_spec",
    "parse_fault_plan",
    "parse_fault_spec",
]
