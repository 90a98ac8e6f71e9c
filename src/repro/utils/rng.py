"""Deterministic random-number helpers.

Every workload and dataset generator in the repository accepts a ``seed`` so
that experiments are reproducible run-to-run.  ``make_rng`` centralizes the
construction so that passing either a seed or an existing ``random.Random``
instance behaves consistently everywhere.
"""

from __future__ import annotations

import random
from bisect import bisect_left


def make_rng(seed_or_rng: int | random.Random | None) -> random.Random:
    """Return a ``random.Random`` from a seed, an existing RNG, or ``None``.

    ``None`` maps to a fixed default seed (not the global RNG) so that callers
    who omit the argument still get deterministic behaviour.
    """
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    if seed_or_rng is None:
        seed_or_rng = 0xC0FFEE
    return random.Random(seed_or_rng)


class ZipfianSampler:
    """Samples ranks ``0..n-1`` with probability proportional to ``1/(rank+1)^s``.

    Used by the concurrent serving example to skew each client's query
    stream toward a small set of hot queries/sources, the access pattern a
    serving cache is built for.  The cumulative weights are precomputed so one
    sample costs a single binary search.
    """

    def __init__(self, n: int, s: float = 1.1) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        if s < 0.0:
            raise ValueError("s must be >= 0")
        self.n = n
        self.s = s
        self._cumulative: list[float] = []
        total = 0.0
        for rank in range(n):
            total += 1.0 / float(rank + 1) ** s
            self._cumulative.append(total)
        self._total = total

    def sample(self, rng: random.Random) -> int:
        """Draw one rank using the caller's RNG stream."""
        point = rng.random() * self._total
        return min(self.n - 1, bisect_left(self._cumulative, point))


def spawn(rng: random.Random, label: str) -> random.Random:
    """Derive an independent child RNG from ``rng`` for the given label.

    Used by generators that need several independent random streams (e.g. one
    per table) without the streams interfering when one of them draws a
    different number of values.
    """
    seed = rng.getrandbits(48) ^ (hash(label) & 0xFFFFFFFF)
    return random.Random(seed)
