"""Typed error taxonomy for failure containment.

Every failure the serving stack can *contain* surfaces as a subclass of
:class:`ReCacheError`, so callers (and the chaos harness) can distinguish
"the system handled a fault and is telling you about it" from a genuine
bug escaping as a bare ``Exception``:

* :class:`TransientScanError` — an IO fault (or injected equivalent) hit a
  raw-source scan; retryable, and :meth:`QueryEngine.execute` retries it
  with jittered backoff up to ``SCAN_RETRY_LIMIT`` times.
* :class:`CorruptedCacheError` — a cache entry's layout scan raised; the
  entry is quarantined (evicted, budget released) and the query degrades
  to a raw-source scan.
* :class:`DeadlineExceeded` — the query's per-query deadline elapsed
  (in queue or mid-execution).
* :class:`WorkerCrashed` — an executor thread died mid-execution; affected
  futures are failed with this instead of hanging.
"""

from __future__ import annotations


class ReCacheError(Exception):
    """Base class of every typed, contained failure."""


class TransientScanError(ReCacheError):
    """A raw-source scan failed in a way worth retrying (IO error, short read)."""


class CorruptedCacheError(ReCacheError):
    """A cached layout produced an error mid-scan; the entry is poisoned."""


class DeadlineExceeded(ReCacheError):
    """The query's deadline elapsed before a result was produced."""


class WorkerCrashed(ReCacheError):
    """An executor worker died while serving this query's execution."""
