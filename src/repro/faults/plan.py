"""Deterministic, seeded fault plans.

A :class:`FaultPlan` is a set of scoped injectors parsed from a compact
spec string (the ``RECACHE_FAULTS`` env var or :func:`~repro.faults.runtime.activate`)::

    scope:kind[:key=value,...][;scope:kind...]

    scan.raw:io_error:rate=0.05,limit=2
    scan.layout:corrupt:after=100;server.worker:worker_crash:rate=0.5

Scopes name *where* the fault can fire, kinds *what* fires:

========== ================================================================
scope      fault site
========== ================================================================
scan.raw   CSV/JSON plugin scans (per record parsed)
scan.layout cached-layout scans in the executor and layouts (per row/batch)
server.worker  ``EngineServer`` worker threads (execution dies mid-flight)
========== ================================================================

========== ================================================================
kind       effect when it fires
========== ================================================================
io_error   raise :class:`TransientScanError` (retryable)
short_read raise :class:`TransientScanError` (truncated stream, retryable)
corrupt    raise :class:`CorruptedCacheError` (poisoned cache entry)
latency    ``time.sleep(delay)`` spike (default 1 ms)
worker_crash raise :class:`WorkerCrashed` in the serving worker
========== ================================================================

Parameters: ``rate`` (per-opportunity probability, default 1.0), ``limit``
(max firings, default unlimited), ``after`` (skip the first N
opportunities), ``delay`` (latency spike seconds), ``detail`` (substring
filter on the site detail, e.g. a file name).  Randomness comes from one
``random.Random(seed)`` per injector, so a (spec, seed) pair replays the
exact same fault schedule — the property the chaos harness relies on.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

from repro.core.errors import CorruptedCacheError, TransientScanError, WorkerCrashed

SCOPES = frozenset({"scan.raw", "scan.layout", "server.worker"})
KINDS = frozenset({"io_error", "short_read", "corrupt", "latency", "worker_crash"})

_FLOAT_PARAMS = frozenset({"rate", "delay"})
_INT_PARAMS = frozenset({"limit", "after"})


@dataclass(frozen=True)
class FaultSpec:
    """One scoped fault: where it can fire, what fires, and how often."""

    scope: str
    kind: str
    rate: float = 1.0
    limit: int | None = None
    after: int = 0
    delay: float = 0.001
    detail: str | None = None

    def __post_init__(self) -> None:
        if self.scope not in SCOPES:
            raise ValueError(f"unknown fault scope {self.scope!r}; expected one of {sorted(SCOPES)}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {sorted(KINDS)}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.limit is not None and self.limit < 0:
            raise ValueError(f"fault limit must be >= 0, got {self.limit}")
        if self.after < 0:
            raise ValueError(f"fault 'after' must be >= 0, got {self.after}")
        if self.delay < 0:
            raise ValueError(f"fault delay must be >= 0, got {self.delay}")

    def as_string(self) -> str:
        parts = [f"{self.scope}:{self.kind}"]
        params = []
        if self.rate != 1.0:
            params.append(f"rate={self.rate}")
        if self.limit is not None:
            params.append(f"limit={self.limit}")
        if self.after:
            params.append(f"after={self.after}")
        if self.delay != 0.001:
            params.append(f"delay={self.delay}")
        if self.detail is not None:
            params.append(f"detail={self.detail}")
        if params:
            parts.append(",".join(params))
        return ":".join(parts)


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse one ``scope:kind[:key=value,...]`` clause."""
    pieces = text.strip().split(":", 2)
    if len(pieces) < 2:
        raise ValueError(f"fault spec {text!r} must look like 'scope:kind[:key=value,...]'")
    scope, kind = pieces[0].strip(), pieces[1].strip()
    params: dict[str, object] = {}
    if len(pieces) == 3 and pieces[2].strip():
        for clause in pieces[2].split(","):
            if "=" not in clause:
                raise ValueError(f"fault parameter {clause!r} must look like 'key=value'")
            key, _, value = clause.partition("=")
            key, value = key.strip(), value.strip()
            if key in _FLOAT_PARAMS:
                params[key] = float(value)
            elif key in _INT_PARAMS:
                params[key] = int(value)
            elif key == "detail":
                params[key] = value
            else:
                raise ValueError(f"unknown fault parameter {key!r}")
    return FaultSpec(scope=scope, kind=kind, **params)  # type: ignore[arg-type]


def parse_fault_plan(spec: str, seed: int = 0) -> "FaultPlan":
    """Parse a ``;``-separated list of fault clauses into a seeded plan."""
    clauses = [clause for clause in spec.split(";") if clause.strip()]
    if not clauses:
        raise ValueError("empty fault plan spec")
    return FaultPlan([parse_fault_spec(clause) for clause in clauses], seed=seed)


class _InjectorState:
    """Mutable firing state of one :class:`FaultSpec` (thread-safe)."""

    GUARDED_BY = {"_opportunities": "_lock", "_fired": "_lock", "_rng": "_lock"}

    def __init__(self, spec: FaultSpec, seed: int) -> None:
        self.spec = spec
        self._lock = threading.Lock()
        self._rng = random.Random((seed * 1_000_003) ^ hash((spec.scope, spec.kind)))
        self._opportunities = 0
        self._fired = 0

    def fires(self) -> bool:
        """Consume one opportunity; True when the fault fires this time."""
        spec = self.spec
        with self._lock:
            self._opportunities += 1
            if self._opportunities <= spec.after:
                return False
            if spec.limit is not None and self._fired >= spec.limit:
                return False
            if spec.rate < 1.0 and self._rng.random() >= spec.rate:
                return False
            self._fired += 1
            return True

    @property
    def fired(self) -> int:
        return self._fired  # unguarded-read: GIL-atomic int snapshot for reporting

    @property
    def opportunities(self) -> int:
        return self._opportunities  # unguarded-read: GIL-atomic int snapshot for reporting


class FaultInjector:
    """The per-site handle: decides and performs faults for matching specs.

    Call it at each opportunity — it either returns normally, sleeps (kind
    ``latency``), or raises the typed error of the first firing spec.  Use
    :meth:`fires` for sites that need a boolean (a real worker-process kill)
    instead of an exception.
    """

    __slots__ = ("_states", "detail")

    def __init__(self, states: list[_InjectorState], detail: str | None) -> None:
        self._states = states
        self.detail = detail

    def fires(self) -> bool:
        return any(state.fires() for state in self._states)

    def __call__(self) -> None:
        for state in self._states:
            if not state.fires():
                continue
            kind = state.spec.kind
            site = self.detail or state.spec.scope
            if kind == "latency":
                time.sleep(state.spec.delay)
            elif kind == "corrupt":
                raise CorruptedCacheError(f"injected corruption in {site}")
            elif kind == "worker_crash":
                raise WorkerCrashed(f"injected worker crash serving {site}")
            elif kind == "short_read":
                raise TransientScanError(f"injected short read in {site}")
            else:  # io_error
                raise TransientScanError(f"injected io error in {site}")


class FaultPlan:
    """An immutable set of seeded fault injectors, matched by scope/detail."""

    def __init__(self, specs: list[FaultSpec], seed: int = 0) -> None:
        self.seed = seed
        self.specs = tuple(specs)
        self._states = tuple(_InjectorState(spec, seed) for spec in self.specs)

    def injector_for(self, scope: str, detail: str | None = None) -> FaultInjector | None:
        """The injector covering one fault site, or None when nothing matches.

        Call once per scan/operation (hoisted out of per-record loops); a
        ``None`` return is the disabled fast path — the per-record cost is a
        single ``is not None`` check on a local.
        """
        states = [
            state
            for state in self._states
            if state.spec.scope == scope
            and (state.spec.detail is None or detail is None or state.spec.detail in detail)
        ]
        if not states:
            return None
        return FaultInjector(states, detail)

    def snapshot(self) -> list[dict]:
        """Per-spec firing counts (for chaos reports and tests)."""
        return [
            {
                "spec": state.spec.as_string(),
                "opportunities": state.opportunities,
                "fired": state.fired,
            }
            for state in self._states
        ]
