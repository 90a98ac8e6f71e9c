"""Regression tests for the size-aware eviction heuristic (Algorithm 1 phase 2).

The documented contract: ``choose_victims`` never frees fewer bytes than
requested (unless the cache simply does not hold enough evictable data), and
the phase-2 trim stops at the *smallest* candidate that alone covers the
remaining deficit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from hypothesis import given, strategies as st

from repro.core.cache_entry import CacheStats
from repro.core.eviction import (
    ReCacheGreedyDualPolicy,
    size_aware_victims,
    total_bytes,
)


@dataclass
class _StubEntry:
    """The minimal entry surface the eviction ranking touches."""

    nbytes: int
    stats: CacheStats = field(default_factory=CacheStats)
    gd_baseline: float = 0.0
    frozen_benefit: float | None = None


def _entry(nbytes: int, operator_time: float = 1.0, reuse_count: int = 0) -> _StubEntry:
    entry = _StubEntry(nbytes=nbytes)
    entry.stats.operator_time = operator_time
    entry.stats.caching_time = 0.1
    entry.stats.reuse_count = reuse_count
    return entry


# ---------------------------------------------------------------------------
# Phase-2 trim: documented stopping behaviour
# ---------------------------------------------------------------------------
def test_trim_stops_at_smallest_candidate_covering_the_deficit():
    candidates = [_entry(100), _entry(60), _entry(30), _entry(10)]
    victims = size_aware_victims(candidates, bytes_to_free=130)
    # Largest first (100), 30 bytes remain; the smallest candidate covering
    # the remainder is the 30-byte one — NOT the 60-byte one.
    assert [v.nbytes for v in victims] == [100, 30]


def test_trim_prefers_single_large_victim():
    candidates = [_entry(100), _entry(60), _entry(30), _entry(10)]
    victims = size_aware_victims(candidates, bytes_to_free=90)
    assert [v.nbytes for v in victims] == [100]


def test_trim_takes_smallest_topup_for_tiny_remainder():
    candidates = [_entry(100), _entry(60), _entry(10)]
    victims = size_aware_victims(candidates, bytes_to_free=101)
    assert [v.nbytes for v in victims] == [100, 10]


@given(
    st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=30),
    st.data(),
)
def test_trim_never_frees_fewer_bytes_than_requested(sizes, data):
    candidates = [_entry(size) for size in sizes]
    need = data.draw(st.integers(min_value=1, max_value=sum(sizes)))
    victims = size_aware_victims(candidates, need)
    assert total_bytes(victims) >= need
    assert len(victims) == len({id(v) for v in victims}), "no victim twice"
    assert {id(v) for v in victims} <= {id(c) for c in candidates}


# ---------------------------------------------------------------------------
# Full Algorithm 1 through the policy
# ---------------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=2, max_value=5000),  # nbytes
            st.floats(min_value=0.0, max_value=10.0),  # operator_time
            st.integers(min_value=0, max_value=5),  # reuse_count
        ),
        min_size=1,
        max_size=25,
    ),
    st.data(),
)
def test_choose_victims_covers_the_deficit_when_possible(specs, data):
    entries = [_entry(n, t, r) for n, t, r in specs]
    capacity = sum(e.nbytes for e in entries)
    need = data.draw(st.integers(min_value=1, max_value=capacity))
    policy = ReCacheGreedyDualPolicy()
    for sequence, entry in enumerate(entries):
        policy.on_admit(entry, sequence)
    victims = policy.choose_victims(entries, need)
    assert total_bytes(victims) >= need


def test_choose_victims_returns_everything_when_deficit_exceeds_cache():
    entries = [_entry(10), _entry(20)]
    policy = ReCacheGreedyDualPolicy()
    victims = policy.choose_victims(entries, bytes_to_free=1000)
    assert {id(v) for v in victims} == {id(e) for e in entries}


def test_choose_victims_without_size_awareness_still_covers_deficit():
    entries = [_entry(100), _entry(60), _entry(30)]
    policy = ReCacheGreedyDualPolicy(size_aware=False)
    victims = policy.choose_victims(entries, bytes_to_free=120)
    assert total_bytes(victims) >= 120

