"""A from-scratch persistent B+ tree.

Used as the content-based index the paper builds "only on the content
information" (Section 4.2): keys are content strings (or any orderable
Python values), values are lists of content ids.  Supports bulk loading
from sorted pairs, point and range search, and insertion.

The tree is persistent: :meth:`BPlusTree.insert` path-copies the
root-to-leaf nodes it touches and mutates no other node, so
:meth:`BPlusTree.fork` is O(1) — a new tree header over the same root —
and a fork and its origin share every node that neither changed since.
A node's key, value and child lists are never mutated once it is
reachable from a root.  There is no leaf ``next`` chain (a path-copied
leaf would leave its predecessor pointing at the stale leaf); range
scans and :meth:`BPlusTree.items` walk the leaves through an explicit
descent stack.

The tree charges I/O through an optional
:class:`~repro.storage.pages.Segment`: every node visited on a
root-to-leaf walk is one page touch, and a range scan adds one per
further leaf it reaches, which is exactly the classic cost model for B+
trees.  A path copy keeps the ``node_id`` of the node it replaces, so an
insert is charged as an in-place one would be.
"""

from __future__ import annotations

import copy
from typing import Any, Iterable, Iterator, Optional

from repro.storage.pages import Segment

__all__ = ["BPlusTree"]

DEFAULT_ORDER = 64


class _Leaf:
    __slots__ = ("keys", "values", "node_id")

    def __init__(self, node_id: int):
        self.keys: list[Any] = []
        self.values: list[list[Any]] = []
        self.node_id = node_id


class _Internal:
    __slots__ = ("keys", "children", "node_id")

    def __init__(self, node_id: int):
        self.keys: list[Any] = []      # separators; len(children) == len(keys)+1
        self.children: list[Any] = []
        self.node_id = node_id


class BPlusTree:
    """A B+ tree mapping orderable keys to lists of values.

    ``order`` is the maximum number of keys per node.  Duplicate keys are
    collapsed into one entry whose value list grows (by replacement, never
    in place) — the usual layout for a secondary index.
    """

    def __init__(self, order: int = DEFAULT_ORDER,
                 segment: Optional[Segment] = None):
        if order < 4:
            raise ValueError("order must be at least 4")
        self.order = order
        self.segment = segment
        self._next_node = 0
        self._root: Any = self._new_leaf()
        self._height = 1
        self._entries = 0

    # -- construction ------------------------------------------------------------

    def _new_leaf(self) -> _Leaf:
        leaf = _Leaf(self._next_node)
        self._next_node += 1
        return leaf

    def _new_internal(self) -> _Internal:
        node = _Internal(self._next_node)
        self._next_node += 1
        return node

    @classmethod
    def bulk_load(cls, pairs: Iterable[tuple[Any, Any]],
                  order: int = DEFAULT_ORDER,
                  segment: Optional[Segment] = None) -> "BPlusTree":
        """Build from ``(key, value)`` pairs sorted by key.

        Leaves are packed to ~⅔ fill (leaving room for inserts), then the
        index levels are built bottom-up.
        """
        tree = cls(order=order, segment=segment)
        fill = max(2, (2 * order) // 3)
        leaves: list[_Leaf] = []
        current = tree._new_leaf()
        previous_key: Any = None
        for key, value in pairs:
            if current.keys and key == current.keys[-1]:
                current.values[-1].append(value)
                tree._entries += 1
                continue
            if previous_key is not None and key < previous_key:
                raise ValueError("bulk_load input must be sorted by key")
            previous_key = key
            if len(current.keys) >= fill:
                leaves.append(current)
                current = tree._new_leaf()
            current.keys.append(key)
            current.values.append([value])
            tree._entries += 1
        leaves.append(current)

        # Build internal levels bottom-up.
        level: list[Any] = leaves
        height = 1
        while len(level) > 1:
            parents: list[_Internal] = []
            group: list[Any] = []
            for node in level:
                group.append(node)
                if len(group) == fill + 1:
                    parents.append(tree._make_parent(group))
                    group = []
            if group:
                if len(group) == 1 and parents:
                    # Merge a lone trailing child into the last parent.
                    last = parents[-1]
                    last.keys.append(tree._smallest_key(group[0]))
                    last.children.append(group[0])
                else:
                    parents.append(tree._make_parent(group))
            level = parents
            height += 1
        tree._root = level[0]
        tree._height = height
        return tree

    def _make_parent(self, children: list[Any]) -> _Internal:
        parent = self._new_internal()
        parent.children = list(children)
        parent.keys = [self._smallest_key(child) for child in children[1:]]
        return parent

    @staticmethod
    def _smallest_key(node: Any) -> Any:
        while isinstance(node, _Internal):
            node = node.children[0]
        return node.keys[0]

    # -- basics ---------------------------------------------------------------------

    def __len__(self) -> int:
        return self._entries

    def fork(self) -> "BPlusTree":
        """A new tree over the same root: inserts into either one
        path-copy and leave the other unchanged."""
        return copy.copy(self)

    @property
    def height(self) -> int:
        """Number of levels (leaf-only tree = 1)."""
        return self._height

    def _charge(self, node: Any) -> None:
        if self.segment is not None:
            page_size = self.segment.manager.page_size
            self.segment.touch(node.node_id * page_size, 1)

    # -- search -----------------------------------------------------------------------

    def _descend(self, key: Any,
                 path: Optional[list[tuple[_Internal, int]]] = None
                 ) -> _Leaf:
        """The leaf ``key`` belongs in, charging each node on the way;
        ``path`` (if given) receives the ``(internal node, child
        index)`` steps, root first."""
        node = self._root
        self._charge(node)
        while isinstance(node, _Internal):
            index = _upper_bound(node.keys, key)
            if path is not None:
                path.append((node, index))
            node = node.children[index]
            self._charge(node)
        return node

    def search(self, key: Any) -> list[Any]:
        """All values stored under ``key`` (empty list if absent)."""
        leaf = self._descend(key)
        index = _lower_bound(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return list(leaf.values[index])
        return []

    def range(self, low: Any, high: Any,
              include_low: bool = True,
              include_high: bool = True) -> Iterator[tuple[Any, Any]]:
        """Yield ``(key, value)`` pairs with ``low <= key <= high`` (bounds
        adjustable), walking the leaves in key order.  Charges the
        descent path plus one page per further leaf reached."""
        path: list[tuple[_Internal, int]] = []
        leaf: Optional[_Leaf] = self._descend(low, path)
        index = _lower_bound(leaf.keys, low)
        while leaf is not None:
            keys, values = leaf.keys, leaf.values
            while index < len(keys):
                key = keys[index]
                if key > high or (key == high and not include_high):
                    return
                if key > low or (key == low and include_low):
                    for value in values[index]:
                        yield key, value
                index += 1
            leaf = _next_leaf(path)
            index = 0
            if leaf is not None:
                self._charge(leaf)

    def items(self) -> Iterator[tuple[Any, Any]]:
        """Every ``(key, value)`` pair in key order."""
        stack: list[Any] = [self._root]
        while stack:
            node = stack.pop()
            if isinstance(node, _Internal):
                stack.extend(reversed(node.children))
                continue
            for key, values in zip(node.keys, node.values):
                for value in values:
                    yield key, value

    # -- insert -------------------------------------------------------------------------

    def insert(self, key: Any, value: Any) -> None:
        """Insert one ``(key, value)`` pair, path-copying the nodes it
        touches and splitting as needed (forks stay unchanged)."""
        root, split = self._insert_into(self._root, key, value)
        if split is not None:
            separator, right = split
            parent = self._new_internal()
            parent.keys = [separator]
            parent.children = [root, right]
            root = parent
            self._height += 1
        self._root = root
        self._entries += 1

    def _insert_into(self, node: Any, key: Any, value: Any
                     ) -> tuple[Any, Optional[tuple[Any, Any]]]:
        """The copy of ``node`` holding the new pair, and the
        ``(separator, right sibling)`` of a split (None if none)."""
        self._charge(node)
        if isinstance(node, _Leaf):
            leaf = _Leaf(node.node_id)
            keys, values = node.keys, node.values[:]
            index = _lower_bound(keys, key)
            if index < len(keys) and keys[index] == key:
                values[index] = values[index] + [value]
                leaf.keys, leaf.values = keys, values
                return leaf, None
            keys = keys[:]
            keys.insert(index, key)
            values.insert(index, [value])
            if len(keys) <= self.order:
                leaf.keys, leaf.values = keys, values
                return leaf, None
            middle = len(keys) // 2
            right = self._new_leaf()
            right.keys, right.values = keys[middle:], values[middle:]
            leaf.keys, leaf.values = keys[:middle], values[:middle]
            return leaf, (right.keys[0], right)
        index = _upper_bound(node.keys, key)
        child, split = self._insert_into(node.children[index], key, value)
        copied = _Internal(node.node_id)
        keys, children = node.keys, node.children[:]
        children[index] = child
        if split is None:
            copied.keys, copied.children = keys, children
            return copied, None
        separator, right_child = split
        keys = keys[:]
        keys.insert(index, separator)
        children.insert(index + 1, right_child)
        if len(keys) <= self.order:
            copied.keys, copied.children = keys, children
            return copied, None
        middle = len(keys) // 2
        right = self._new_internal()
        push_up = keys[middle]
        right.keys, right.children = keys[middle + 1:], children[middle + 1:]
        copied.keys, copied.children = keys[:middle], children[:middle + 1]
        return copied, (push_up, right)

    # -- accounting -----------------------------------------------------------------------

    def node_count(self) -> int:
        """Total tree nodes (each is one page in the cost model)."""
        count = 0
        queue: list[Any] = [self._root]
        while queue:
            node = queue.pop()
            count += 1
            if isinstance(node, _Internal):
                queue.extend(node.children)
        return count

    def size_bytes(self, key_bytes: int = 16, value_bytes: int = 4) -> int:
        """Approximate bytes: per entry one key + value, plus per-node
        child-pointer overhead."""
        return (self._entries * (key_bytes + value_bytes)
                + self.node_count() * 16)


def _next_leaf(path: list[tuple[_Internal, int]]) -> Optional[_Leaf]:
    """Advance a descent stack of ``(internal node, child index)`` from
    root to the current leaf to the next leaf in key order (None past
    the last one)."""
    while path:
        node, index = path.pop()
        if index + 1 < len(node.children):
            path.append((node, index + 1))
            child = node.children[index + 1]
            while isinstance(child, _Internal):
                path.append((child, 0))
                child = child.children[0]
            return child
    return None


def _lower_bound(keys: list[Any], key: Any) -> int:
    """First index with ``keys[index] >= key``."""
    low, high = 0, len(keys)
    while low < high:
        mid = (low + high) // 2
        if keys[mid] < key:
            low = mid + 1
        else:
            high = mid
    return low


def _upper_bound(keys: list[Any], key: Any) -> int:
    """First index with ``keys[index] > key``."""
    low, high = 0, len(keys)
    while low < high:
        mid = (low + high) // 2
        if keys[mid] <= key:
            low = mid + 1
        else:
            high = mid
    return low
