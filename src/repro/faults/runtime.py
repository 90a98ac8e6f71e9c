"""Process-global fault-plan activation.

The active plan is a single module-level reference swapped atomically
(reads are GIL-atomic), so the disabled fast path — the common case — is
one global load and a ``None`` check per *scan*, and a local ``is not
None`` check per record.  Nothing else runs when no plan is installed.

Activation paths:

* ``RECACHE_FAULTS`` env var (with optional ``RECACHE_FAULTS_SEED``),
  installed at import time — lets any entry point run under faults
  without code changes;
* :func:`activate` — scoped context manager used by tests and the chaos
  harness (restores the previous plan on exit).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from repro.faults.plan import FaultInjector, FaultPlan, parse_fault_plan

_ACTIVE: FaultPlan | None = None

ENV_VAR = "RECACHE_FAULTS"
ENV_SEED_VAR = "RECACHE_FAULTS_SEED"


def injector_for(scope: str, detail: str | None = None) -> FaultInjector | None:
    """The active injector for one fault site; None when faults are off.

    This is the only call on hot paths.  Hoist it to once per scan and keep
    the result in a local — the per-record guard is then ``if injector is
    not None: injector()``.
    """
    plan = _ACTIVE
    if plan is None:
        return None
    return plan.injector_for(scope, detail)


def active_plan() -> FaultPlan | None:
    return _ACTIVE


def install(plan: FaultPlan | None) -> None:
    """Install ``plan`` process-wide (None disables fault injection)."""
    global _ACTIVE
    _ACTIVE = plan


def install_spec(spec: str, seed: int = 0) -> FaultPlan:
    """Parse and install a spec string; returns the installed plan."""
    plan = parse_fault_plan(spec, seed=seed)
    install(plan)
    return plan


@contextmanager
def activate(plan: FaultPlan | str, seed: int = 0) -> Iterator[FaultPlan]:
    """Temporarily install a plan (or spec string), restoring on exit."""
    if isinstance(plan, str):
        plan = parse_fault_plan(plan, seed=seed)
    previous = _ACTIVE
    install(plan)
    try:
        yield plan
    finally:
        install(previous)


def _install_from_env() -> None:
    spec = os.environ.get(ENV_VAR)
    if spec:
        install_spec(spec, seed=int(os.environ.get(ENV_SEED_VAR, "0")))


_install_from_env()
