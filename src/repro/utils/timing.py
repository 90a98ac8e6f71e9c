"""Sampled timing of the caching work a scan performs.

The paper stresses that naive per-record ``clock_gettime`` instrumentation adds
5-10% overhead to queries, and that ReCache instead samples timing system calls
on fewer than 1% of records (Section 5.1, "Minimizing Cost Monitoring
Overhead").  :class:`SampledTimer` reproduces that behaviour: it only takes a
wall-clock reading for a configurable fraction of the records it is asked to
time and extrapolates the total.
"""

from __future__ import annotations

import random
import time


class SampledTimer:
    """Times a stream of per-record operations by sampling a small fraction.

    For each record the caller invokes :meth:`maybe_start` before the operation
    and :meth:`maybe_stop` after it.  Only a ``sample_rate`` fraction of the
    records actually invoke the clock; the estimated total is the mean sampled
    duration multiplied by the number of records observed.

    A ``sample_rate`` of 1.0 degenerates to exact per-record timing, which the
    ablation bench uses to quantify the monitoring overhead the paper reports.
    """

    def __init__(self, sample_rate: float = 0.01, rng: random.Random | None = None) -> None:
        if not 0.0 < sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in (0, 1], got {sample_rate}")
        self.sample_rate = sample_rate
        self._rng = rng or random.Random(0x5EED)
        self._sampled_time = 0.0
        self._sampled_count = 0
        self._observed_count = 0
        self._pending: float | None = None

    def maybe_start(self) -> bool:
        """Possibly start timing the current record; returns True if sampled."""
        self._observed_count += 1
        if self._rng.random() < self.sample_rate:
            self._pending = time.perf_counter()
            return True
        self._pending = None
        return False

    def maybe_stop(self) -> None:
        """Stop timing the current record if it was sampled."""
        if self._pending is not None:
            self._sampled_time += time.perf_counter() - self._pending
            self._sampled_count += 1
            self._pending = None

    @property
    def observed_count(self) -> int:
        return self._observed_count

    @property
    def sampled_count(self) -> int:
        return self._sampled_count

    @property
    def estimated_total(self) -> float:
        """Estimated total time spent across all observed records."""
        if self._sampled_count == 0:
            return 0.0
        mean = self._sampled_time / self._sampled_count
        return mean * self._observed_count

    def reset(self) -> None:
        self._sampled_time = 0.0
        self._sampled_count = 0
        self._observed_count = 0
        self._pending = None
