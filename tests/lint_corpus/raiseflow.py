"""Seeded ``raise-flow`` violation for the self-test.

A self-contained mini error taxonomy (deriving from a local ``ReCacheError``
root, exactly how the analyzer discovers the real one) plus a module-local
``RECHECK_RAISE_CONTRACTS`` table.  The bad variant plants one deliberately
escaping ``TransientScanError`` behind a contracted entry point; the good
variants show every containment idiom the rule understands — handler
narrowing, re-raise of an allowed error and ``# dynamic-call:``/
``# may-raise:`` annotations.
"""

from __future__ import annotations

RECHECK_RAISE_CONTRACTS = {
    "MiniSubmit.submit": ["QueryRejected"],
    "MiniSubmit.submit_contained": ["QueryRejected"],
    "serve_entry": ["DeadlineExceeded"],
    "run_dispatch": ["TransientScanError"],
    "poll_external": ["DeadlineExceeded"],
}


class ReCacheError(Exception):
    """Local taxonomy root (name-matched, module-independent)."""


class TransientScanError(ReCacheError):
    pass


class QueryRejected(ReCacheError):
    pass


class DeadlineExceeded(ReCacheError):
    pass


def scan_once(entry):
    """The raise source the interprocedural propagation must see."""
    if entry.corrupt:
        raise TransientScanError("backing scan failed")
    return entry.payload


class MiniSubmit:
    """The shape of the real server's admission boundary, reduced."""

    def submit(self, query):  # PLANTED: raise-flow
        if query is None:
            raise QueryRejected("no query")
        return scan_once(query)

    def submit_contained(self, query):
        if query is None:
            raise QueryRejected("no query")
        try:
            return scan_once(query)
        except TransientScanError:
            return None


def serve_entry(entry):
    """Narrow the scan fault, re-raise only the contracted error."""
    try:
        return scan_once(entry)
    except TransientScanError:
        raise DeadlineExceeded("degraded retry budget exhausted")


def run_dispatch(handler, entry):
    """Dispatch-table call made visible to the graph by annotation."""
    return handler(entry)  # dynamic-call: scan_once


def poll_external(client):
    """Statically opaque external call, declared at the site."""
    return client.fetch()  # may-raise: DeadlineExceeded

