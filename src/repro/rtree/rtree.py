"""A balanced R-tree with quadratic node splitting.

The tree stores ``(Rect, value)`` pairs.  ReCache uses it to answer two kinds
of queries:

* :meth:`RTree.search_containing` — entries whose rectangle fully contains a
  query rectangle (the subsumption lookup: which cached predicates cover the
  new predicate?),
* :meth:`RTree.search_intersecting` — entries overlapping a query rectangle.

Insertion follows Guttman's classic algorithm: choose the subtree needing the
least enlargement, split overflowing nodes with the quadratic seed heuristic,
and adjust bounding boxes back up to the root.  Deletion reinserts the entries
of underflowing nodes, keeping the tree balanced.
"""

from __future__ import annotations

from typing import Iterator

from repro.rtree.geometry import Rect


class _Node:
    """Internal tree node.  Leaves hold entries, inner nodes hold children."""

    __slots__ = ("is_leaf", "entries", "children", "rect", "parent")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.entries: list[tuple[Rect, object]] = []
        self.children: list[_Node] = []
        self.rect: Rect | None = None
        self.parent: _Node | None = None

    def recompute_rect(self) -> None:
        rects: list[Rect]
        if self.is_leaf:
            rects = [rect for rect, _ in self.entries]
        else:
            rects = [child.rect for child in self.children if child.rect is not None]
        if not rects:
            self.rect = None
            return
        rect = rects[0]
        for other in rects[1:]:
            rect = rect.union(other)
        self.rect = rect

    def item_count(self) -> int:
        return len(self.entries) if self.is_leaf else len(self.children)


class RTree:
    """Balanced R-tree over ``(Rect, value)`` pairs."""

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries < 4:
            raise ValueError("max_entries must be at least 4")
        self.max_entries = max_entries
        self.min_entries = max(2, max_entries // 2)
        self._root = _Node(is_leaf=True)
        self._size = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def insert(self, rect: Rect, value: object) -> None:
        """Insert a rectangle/value pair."""
        leaf = self._choose_leaf(self._root, rect)
        leaf.entries.append((rect, value))
        leaf.rect = rect if leaf.rect is None else leaf.rect.union(rect)
        self._size += 1
        self._handle_overflow(leaf)
        self._adjust_upwards(leaf)

    def delete(self, rect: Rect, value: object) -> bool:
        """Delete one entry matching ``(rect, value)``; returns True if found."""
        leaf = self._find_leaf(self._root, rect, value)
        if leaf is None:
            return False
        for index, (entry_rect, entry_value) in enumerate(leaf.entries):
            if entry_rect == rect and entry_value == value:
                del leaf.entries[index]
                break
        self._size -= 1
        self._condense(leaf)
        # Shrink the root if it has a single non-leaf child.
        while not self._root.is_leaf and len(self._root.children) == 1:
            self._root = self._root.children[0]
            self._root.parent = None
        return True

    def search_containing(self, query: Rect) -> list[object]:
        """Values whose rectangle fully contains ``query`` (subsumption lookup)."""
        results: list[object] = []
        self._search(self._root, query, results)
        return results

    def items(self) -> Iterator[tuple[Rect, object]]:
        """Iterate over all stored ``(rect, value)`` pairs."""
        yield from self._iter_node(self._root)

    # ------------------------------------------------------------------
    # Search / traversal internals
    # ------------------------------------------------------------------
    def _search(self, node: _Node, query: Rect, out: list) -> None:
        if node.rect is None:
            return
        if node.is_leaf:
            for rect, value in node.entries:
                if rect.contains(query):
                    out.append(value)
            return
        for child in node.children:
            # A subtree can only help if its bounding box itself contains the
            # query rectangle.
            if child.rect is not None and child.rect.contains(query):
                self._search(child, query, out)

    def _iter_node(self, node: _Node) -> Iterator[tuple[Rect, object]]:
        if node.is_leaf:
            yield from node.entries
            return
        for child in node.children:
            yield from self._iter_node(child)

    def _find_leaf(self, node: _Node, rect: Rect, value: object) -> _Node | None:
        if node.rect is None:
            return None
        if node.is_leaf:
            for entry_rect, entry_value in node.entries:
                if entry_rect == rect and entry_value == value:
                    return node
            return None
        for child in node.children:
            if child.rect is not None and child.rect.contains(rect):
                found = self._find_leaf(child, rect, value)
                if found is not None:
                    return found
        return None

    # ------------------------------------------------------------------
    # Insertion internals
    # ------------------------------------------------------------------
    def _choose_leaf(self, node: _Node, rect: Rect) -> _Node:
        while not node.is_leaf:
            best_child = None
            best_key: tuple[float, float] | None = None
            for child in node.children:
                child_rect = child.rect if child.rect is not None else rect
                key = (child_rect.enlargement(rect), child_rect.area())
                if best_key is None or key < best_key:
                    best_key = key
                    best_child = child
            assert best_child is not None
            node = best_child
        return node

    def _handle_overflow(self, node: _Node) -> None:
        while node is not None and node.item_count() > self.max_entries:
            sibling = self._split(node)
            parent = node.parent
            if parent is None:
                new_root = _Node(is_leaf=False)
                new_root.children = [node, sibling]
                node.parent = new_root
                sibling.parent = new_root
                new_root.recompute_rect()
                self._root = new_root
                return
            parent.children.append(sibling)
            sibling.parent = parent
            parent.recompute_rect()
            node = parent

    def _split(self, node: _Node) -> _Node:
        """Quadratic split: pick the two most wasteful seeds, then distribute."""
        items: list[tuple[Rect, object]]
        if node.is_leaf:
            items = list(node.entries)
        else:
            items = [(child.rect, child) for child in node.children]

        seed_a, seed_b = self._pick_seeds([rect for rect, _ in items])
        group_a: list[tuple[Rect, object]] = [items[seed_a]]
        group_b: list[tuple[Rect, object]] = [items[seed_b]]
        rect_a = items[seed_a][0]
        rect_b = items[seed_b][0]
        remaining = [item for i, item in enumerate(items) if i not in (seed_a, seed_b)]

        for rect, payload in remaining:
            # Force assignment when one group must absorb the rest to reach
            # the minimum fill factor.
            if len(group_a) + len(remaining) <= self.min_entries:
                group_a.append((rect, payload))
                rect_a = rect_a.union(rect)
                continue
            if len(group_b) + len(remaining) <= self.min_entries:
                group_b.append((rect, payload))
                rect_b = rect_b.union(rect)
                continue
            grow_a = rect_a.enlargement(rect)
            grow_b = rect_b.enlargement(rect)
            if grow_a < grow_b or (grow_a == grow_b and len(group_a) <= len(group_b)):
                group_a.append((rect, payload))
                rect_a = rect_a.union(rect)
            else:
                group_b.append((rect, payload))
                rect_b = rect_b.union(rect)

        sibling = _Node(is_leaf=node.is_leaf)
        if node.is_leaf:
            node.entries = group_a
            sibling.entries = group_b
        else:
            node.children = [payload for _, payload in group_a]
            sibling.children = [payload for _, payload in group_b]
            for child in node.children:
                child.parent = node
            for child in sibling.children:
                child.parent = sibling
        node.recompute_rect()
        sibling.recompute_rect()
        return sibling

    @staticmethod
    def _pick_seeds(rects: list[Rect]) -> tuple[int, int]:
        worst_pair = (0, 1)
        worst_waste = float("-inf")
        for i in range(len(rects)):
            for j in range(i + 1, len(rects)):
                waste = rects[i].union(rects[j]).area() - rects[i].area() - rects[j].area()
                if waste > worst_waste:
                    worst_waste = waste
                    worst_pair = (i, j)
        return worst_pair

    def _adjust_upwards(self, node: _Node) -> None:
        while node is not None:
            node.recompute_rect()
            node = node.parent

    # ------------------------------------------------------------------
    # Deletion internals
    # ------------------------------------------------------------------
    def _condense(self, node: _Node) -> None:
        orphans: list[tuple[Rect, object]] = []
        while node.parent is not None:
            parent = node.parent
            if node.item_count() < self.min_entries:
                parent.children.remove(node)
                orphans.extend(self._iter_node(node))
            else:
                node.recompute_rect()
            parent.recompute_rect()
            node = parent
        self._root.recompute_rect()
        for rect, value in orphans:
            self._size -= 1
            self.insert(rect, value)
