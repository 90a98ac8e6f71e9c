"""Spans around the engine's public layer boundaries, installed from outside.

The benchmark owns its tracing: nothing under ``src/`` knows about it.  Each
target is a dotted public name resolved when the tracer is installed; the
callable it names is replaced by a timing wrapper on its owner *and* in every
loaded ``repro`` module that holds it through ``from ... import`` (the
executor does).  A name that no longer resolves is reported under
``untraced_targets`` and skipped, so a refactor that deletes a layer cannot
break the benchmark.

A span is ``(id, parent, request, name, start, end, busy)``.  ``busy`` equals
``end - start`` for a plain call; for a call that returns a generator the span
covers creation to exhaustion and ``busy`` sums the time spent inside
``next()``.  A layer's self time is its busy time minus the busy time of the
spans it caused.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
import types
from collections import defaultdict
from pathlib import Path

#: dotted public name -> the layer metric its self time feeds (``<layer>_s``)
TARGETS: dict[str, str] = {
    "repro.formats.datafile.DataSource.scan_batches": "formats.scan",
    "repro.formats.datafile.DataSource.scan": "formats.scan",
    "repro.formats.datafile.DataSource.scan_records": "formats.scan",
    "repro.formats.datafile.DataSource.read_record_rows": "formats.scan",
    "repro.layouts.convert.build_layout": "layouts.build",
    "repro.layouts.convert.convert_layout": "layouts.build",
    "repro.layouts.base.CacheLayout.scan_batches": "layouts.scan",
    "repro.layouts.base.CacheLayout.range_filtered_batch": "layouts.scan",
    "repro.core.cache_manager.ReCache.lookup": "core.cache_manager.lookup",
    "repro.core.cache_manager.ReCache.admit_eager": "core.cache_manager.admit",
    "repro.core.cache_manager.ReCache.admit_lazy": "core.cache_manager.admit",
    "repro.core.cache_manager.ReCache.upgrade_lazy": "core.cache_manager.admit",
    "repro.core.cache_manager.ReCache.record_reuse": "core.cache_manager.reuse",
    "repro.core.cache_manager.ReCache.evict_entry": "core.cache_manager.evict",
    "repro.core.eviction.EvictionPolicy.choose_victims": "core.cache_manager.evict",
    "repro.engine.operators.filter_batches": "engine.operators.filter",
    "repro.engine.operators.hash_join_batches": "engine.operators.join",
    "repro.engine.operators.aggregate_batches": "engine.operators.aggregate",
    "repro.engine.batch.rows_from_batches": "engine.operators.exit",
    "repro.engine.optimizer.build_plan": "engine.session.plan",
    "repro.engine.session.QueryEngine.plan": "engine.session.plan",
    "repro.engine.session.QueryEngine.execute": "engine.session.self",
    "repro.engine.server.EngineServer.execute": "engine.server.self",
    "repro.engine.procpool.ProcessExecutionPool.execute": "engine.procpool.roundtrip",
}

#: the two request entry points; their first argument is the query, whose
#: identity links a server span (client thread) to its engine span (worker)
_SERVER_EXECUTE = "repro.engine.server.EngineServer.execute"
_ENGINE_EXECUTE = "repro.engine.session.QueryEngine.execute"


class _ThreadState:
    """One thread's open-span stack, finished spans and per-target tallies."""

    def __init__(self) -> None:
        #: open frames: [span id, request id, busy time of finished children]
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        #: target -> [calls, useful outcomes, self seconds, items yielded]
        self.tally: dict[str, list] = defaultdict(lambda: [0, 0, 0.0, 0])


class Tracer:
    """Installs, collects and removes the spans of one traced run."""

    def __init__(self, targets: dict[str, str] | None = None) -> None:
        self.targets = dict(TARGETS if targets is None else targets)
        self.untraced_targets: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        #: (owner, attribute, original) triples to restore on uninstall
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        for dotted in self.targets:
            if not self._patch(dotted):
                self.untraced_targets.append(dotted)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def _patch(self, dotted: str) -> bool:
        owner, attribute = _resolve_owner(dotted)
        if owner is None:
            return False
        if isinstance(owner, type):
            # A method: wrap it on the class and on every subclass that
            # overrides it (layouts override ``scan_batches``; only the
            # subclasses define ``range_filtered_batch``).
            classes = [
                c
                for c in _with_subclasses(owner)
                if isinstance(vars(c).get(attribute), types.FunctionType)
            ]
            for cls in classes:
                self._replace(cls, attribute, dotted)
            return bool(classes)
        original = getattr(owner, attribute, None)
        if not callable(original):
            return False
        wrapper = self._wrap(original, dotted)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").split(".")[0] != "repro":
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, name, original))
                    setattr(module, name, wrapper)
        return True

    def _replace(self, cls: type, attribute: str, dotted: str) -> None:
        original = vars(cls)[attribute]
        self._patched.append((cls, attribute, original))
        setattr(cls, attribute, self._wrap(original, dotted))

    # ------------------------------------------------------------------
    # The wrapper
    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(state)
        return state

    def _wrap(self, function, dotted: str):
        is_request = dotted in (_SERVER_EXECUTE, _ENGINE_EXECUTE)
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            state = self._state()
            stack = state.stack
            parent = stack[-1] if stack else None
            # Spans of one request share its identifier: the query object's
            # identity at an entry point, inherited by everything beneath.
            request = id(args[1]) if is_request else (parent[1] if parent else 0)
            frame = [next(self._ids), request, 0.0]
            stack.append(frame)
            started = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
            if isinstance(result, types.GeneratorType):
                return self._traced_iter(result, dotted, frame, parent, started, ended)
            tally = state.tally[dotted]
            tally[0] += 1
            tally[1] += result is not None and result is not False
            busy = ended - started
            tally[2] += busy - frame[2]
            if parent is not None:
                parent[2] += busy
            state.spans.append(
                (frame[0], parent[0] if parent else 0, request, dotted, started, ended, busy)
            )
            return result

        return traced

    def _traced_iter(self, generator, dotted, frame, parent, started, created):
        """Time a generator per ``next()``: the consumer's work between items
        belongs to the consumer, not to this span."""
        state = self._state()
        stack = state.stack
        clock = time.perf_counter
        busy = created - started
        items = 0
        try:
            while True:
                stack.append(frame)
                resumed = clock()
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    busy += clock() - resumed
                    stack.pop()
                items += getattr(item, "record_count", 1)
                yield item
        finally:
            generator.close()
            tally = state.tally[dotted]
            tally[0] += 1
            tally[1] += 1
            tally[2] += busy - frame[2]
            tally[3] += items
            if parent is not None:
                # The consumer is still open (it drives this generator).
                parent[2] += busy
            state.spans.append(
                (frame[0], parent[0] if parent else 0, frame[1], dotted, started, clock(), busy)
            )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def spans(self) -> list[tuple]:
        with self._states_lock:
            return [span for state in self._states for span in state.spans]

    def tallies(self) -> dict[str, list]:
        """Per-target ``[calls, useful outcomes, self seconds, items]``, all threads."""
        merged: dict[str, list] = {dotted: [0, 0, 0.0, 0] for dotted in self.targets}
        with self._states_lock:
            for state in self._states:
                for dotted, tally in state.tally.items():
                    for index, value in enumerate(tally):
                        merged[dotted][index] += value
        return merged

    def served_pairs(self) -> list[tuple[tuple, tuple]]:
        """(server span, engine span) of each served request.

        A server span's only child runs on a worker thread, where no stack
        links the two.  They share the request's query object, and the engine
        span starts while the server span is open.
        """
        spans = self.spans()
        servers: dict[int, list[tuple]] = defaultdict(list)
        for span in spans:
            if span[3] == _SERVER_EXECUTE:
                servers[span[2]].append(span)
        pairs = []
        for span in spans:
            if span[3] == _ENGINE_EXECUTE and not span[1]:
                for server in servers.get(span[2], ()):
                    if server[4] <= span[4] <= server[5]:
                        pairs.append((server, span))
                        break
        return pairs

    def layer_seconds(self) -> dict[str, float]:
        """Self seconds per layer metric.

        For a served request the gap between the start of its server span and
        the start of its engine span is queue wait, and what remains of the
        server span once the engine span is taken out is the server's own time.
        """
        seconds: dict[str, float] = defaultdict(float)
        for dotted, tally in self.tallies().items():
            seconds[self.targets[dotted]] += tally[2]
        pairs = self.served_pairs()
        queue_wait = sum(engine[4] - server[4] for server, engine in pairs)
        seconds["engine.server.queue_wait"] = queue_wait
        seconds["engine.server.self"] -= queue_wait + sum(engine[6] for _, engine in pairs)
        return dict(seconds)

    def write(self, path: Path, header: dict) -> None:
        """Dump the spans, oldest first; a served engine span's parent is its server span."""
        parents = {engine[0]: server[0] for server, engine in self.served_pairs()}
        spans = [
            (span[0], parents.get(span[0], span[1]), *span[2:])
            for span in sorted(self.spans(), key=lambda span: span[4])
        ]
        document = dict(header)
        document["untraced_targets"] = self.untraced_targets
        document["span_fields"] = ["id", "parent", "request", "name", "start", "end", "busy"]
        document["spans"] = spans
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def _resolve_owner(dotted: str) -> tuple[object | None, str]:
    """The module or class that holds ``dotted``'s last component, if any."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None, parts[-1]
        return owner, parts[-1]
    return None, parts[-1]


def _with_subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_with_subclasses(sub))
    return found
