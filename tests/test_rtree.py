"""Tests for the R-tree used by the subsumption index."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.rtree import Rect, RTree


def box(*bounds):
    return Rect(tuple(float(b[0]) for b in bounds), tuple(float(b[1]) for b in bounds))


class TestRect:
    def test_validation(self):
        with pytest.raises(ValueError):
            Rect((1.0,), (0.0,))
        with pytest.raises(ValueError):
            Rect((), ())
        with pytest.raises(ValueError):
            Rect((0.0,), (1.0, 2.0))

    def test_contains(self):
        outer = box((0, 10), (0, 10))
        inner = box((2, 3), (4, 5))
        disjoint = box((20, 30), (20, 30))
        assert outer.contains(inner) and not inner.contains(outer)
        assert not outer.contains(disjoint) and not disjoint.contains(inner)

    def test_union_and_enlargement(self):
        a = Rect.from_interval(0, 1)
        b = Rect.from_interval(5, 6)
        union = a.union(b)
        assert (union.lows[0], union.highs[0]) == (0, 6)
        assert a.enlargement(b) == pytest.approx(5.0)
        assert a.enlargement(Rect.from_interval(0.2, 0.8)) == 0.0


def _brute_force_containing(items, query):
    return [value for rect, value in items if rect.contains(query)]


class TestRTree:
    def test_insert_and_search(self):
        tree = RTree(max_entries=4)
        for i in range(50):
            tree.insert(Rect.from_interval(i, i + 10), i)
        assert len(tree) == 50
        hits = tree.search_containing(Rect.from_interval(22, 24))
        assert sorted(hits) == list(range(14, 23))

    def test_delete(self):
        tree = RTree(max_entries=4)
        rects = [(Rect.from_interval(i, i + 2), i) for i in range(30)]
        for rect, value in rects:
            tree.insert(rect, value)
        for rect, value in rects[:15]:
            assert tree.delete(rect, value)
        assert len(tree) == 15
        assert not tree.delete(Rect.from_interval(1000, 1001), "missing")
        remaining = {value for _, value in tree.items()}
        assert remaining == set(range(15, 30))

    def test_min_max_entries_validation(self):
        with pytest.raises(ValueError):
            RTree(max_entries=2)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(-100, 100), st.floats(0, 20)), min_size=1, max_size=60),
        st.tuples(st.floats(-100, 100), st.floats(0, 5)),
    )
    def test_containment_matches_brute_force(self, intervals, probe):
        tree = RTree(max_entries=5)
        items = []
        for index, (low, width) in enumerate(intervals):
            rect = Rect.from_interval(low, low + width)
            tree.insert(rect, index)
            items.append((rect, index))
        query = Rect.from_interval(probe[0], probe[0] + probe[1])
        assert sorted(tree.search_containing(query)) == sorted(_brute_force_containing(items, query))

    def test_randomized_two_dimensional_queries(self):
        rng = random.Random(11)
        tree = RTree(max_entries=6)
        items = []
        for index in range(200):
            low_x, low_y = rng.uniform(0, 100), rng.uniform(0, 100)
            rect = box((low_x, low_x + rng.uniform(0, 20)), (low_y, low_y + rng.uniform(0, 20)))
            tree.insert(rect, index)
            items.append((rect, index))
        for _ in range(25):
            x, y = rng.uniform(0, 110), rng.uniform(0, 110)
            query = box((x, x + 1), (y, y + 1))
            assert sorted(tree.search_containing(query)) == sorted(_brute_force_containing(items, query))
