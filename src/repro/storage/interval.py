"""Interval (pre/post/level) encoding — the extended-relational baseline.

The paper contrasts its succinct scheme with the extended-relational
approach, which is "heavily dependent on the physical level representation
(e.g., interval encoding [1]) of XML data" and whose shredding "store[s]
them without considering their structural relationships" (Section 4.1).

:class:`IntervalDocument` shreds a document into the classic
*(pre, post, level, parent)* labels, kept as columns indexed by pre id:
``end``, ``level`` and ``parent`` (``array('q')``), ``tags``, ``kinds``
and ``values``.  ``pre`` is the position and ``post`` is ``end - level``
(true of any ordered tree).  Structural predicates become label
arithmetic::

    a is an ancestor of d   iff   a.pre < d.pre  and  d.post < a.post
    p is the parent of c    iff   ancestor and p.level + 1 == c.level

:class:`IntervalNode` records are read-only tuples built on demand for
the join baselines and tests.

Pre-order ids are assigned identically to
:class:`~repro.storage.succinct.SuccinctDocument` (document node 0,
attribute children before element content), so results from the two stores
are directly comparable in the differential tests.

The known pain point reproduced for experiment E7: inserting a subtree
forces relabelling of every node whose *pre* follows the insertion point
and every ancestor's *post* — Θ(n) in the worst case.
"""

from __future__ import annotations

import sys
from array import array
from functools import partial
from operator import sub
from typing import Iterable, Iterator, NamedTuple, Optional

from repro.errors import SnapshotCorruptError, StorageError
from repro.xml import model
from repro.xml.events import (
    Characters,
    CommentEvent,
    EndDocument,
    EndElement,
    Event,
    PIEvent,
    StartDocument,
    StartElement,
    events_from_tree,
)
from repro.storage.succinct import (
    COMMENT_TAG,
    DOCUMENT_TAG,
    KIND_ATTRIBUTE,
    KIND_COMMENT,
    KIND_DOCUMENT,
    KIND_ELEMENT,
    KIND_PI,
    KIND_TEXT,
    TEXT_TAG,
)

__all__ = ["IntervalNode", "IntervalDocument", "shifted"]


class IntervalNode(NamedTuple):
    """One node's labels as a read-only record.

    ``pre`` and ``end`` delimit the subtree in pre-order positions
    (``end`` is the pre id of the last descendant — the interval encoding
    of DeHaan et al. [1]); ``post`` is the post-order rank kept for
    operators phrased in the pre/post plane.
    """

    pre: int
    post: int
    end: int
    level: int
    parent: int           # pre id of the parent; -1 for the document node
    tag: str
    kind: int
    value: Optional[str]  # attached content for leaf kinds

    def contains(self, other: "IntervalNode") -> bool:
        """Proper ancestorship by interval arithmetic."""
        return self.pre < other.pre <= self.end

    def is_parent_of(self, other: "IntervalNode") -> bool:
        """Parent-child by interval + level arithmetic."""
        return self.contains(other) and self.level + 1 == other.level


_record = partial(tuple.__new__, IntervalNode)
_ONE = array("q", [1])


def shifted(values: array, delta: int) -> array:
    """A copy of the ``array('q')`` ``values`` with ``delta`` added to
    every entry, at C speed: the packed entries are read as one integer
    and ``delta`` times a 1-in-every-64-bit-lane integer is added.  Every
    entry must be non-negative before and after, so no lane carries
    into (or borrows from) its neighbour."""
    if not values or not delta:
        return values[:]
    order = sys.byteorder
    lanes = int.from_bytes(values.tobytes(), order)
    lanes += delta * int.from_bytes((_ONE * len(values)).tobytes(), order)
    result = array("q")
    result.frombytes(lanes.to_bytes(8 * len(values), order))
    return result


class IntervalDocument:
    """A pre/post/level shredded document stored as label columns."""

    def __init__(self):
        self.end = array("q")       # pre id of the last descendant
        self.level = array("q")     # depth; the document node is 0
        self.parent = array("q")    # parent pre id; -1 for the document
        self.tags: list[str] = []
        self.kinds = bytearray()
        self.values: list[Optional[str]] = []
        self.uri = ""
        self._nodes: Optional[list[IntervalNode]] = None

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_events(cls, events: Iterable[Event]) -> "IntervalDocument":
        """Single-pass shredding of a parse-event stream."""
        document = cls()
        end, level, parent = document.end, document.level, document.parent
        tags, kinds, values = document.tags, document.kinds, document.values
        stack: list[int] = []      # open node pre ids
        pending_text: list[str] = []

        def open_node(tag: str, kind: int,
                      value: Optional[str] = None) -> int:
            pre = len(tags)
            end.append(pre)        # a leaf until its element closes
            level.append(len(stack))
            parent.append(stack[-1] if stack else -1)
            tags.append(tag)
            kinds.append(kind)
            values.append(value)
            return pre

        def close_node(pre: int) -> None:
            end[pre] = len(tags) - 1

        def flush_text() -> None:
            if pending_text:
                open_node(TEXT_TAG, KIND_TEXT, "".join(pending_text))
                pending_text.clear()

        for event in events:
            if isinstance(event, StartElement):
                flush_text()
                stack.append(open_node(event.tag, KIND_ELEMENT))
                for name, value in event.attributes:
                    open_node("@" + name, KIND_ATTRIBUTE, value)
            elif isinstance(event, EndElement):
                flush_text()
                close_node(stack.pop())
            elif isinstance(event, Characters):
                pending_text.append(event.value)
            elif isinstance(event, CommentEvent):
                flush_text()
                open_node(COMMENT_TAG, KIND_COMMENT, event.value)
            elif isinstance(event, PIEvent):
                flush_text()
                open_node("?" + event.target, KIND_PI, event.data)
            elif isinstance(event, StartDocument):
                document.uri = event.uri
                stack.append(open_node(DOCUMENT_TAG, KIND_DOCUMENT))
            elif isinstance(event, EndDocument):
                flush_text()
                close_node(stack.pop())
        return document

    @classmethod
    def from_document(cls, tree: model.Document) -> "IntervalDocument":
        """Shred an in-memory tree."""
        return cls.from_events(events_from_tree(tree))

    # -- access -------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.tags)

    def _check(self, pre: int) -> None:
        if pre < 0 or pre >= len(self.tags):
            raise StorageError(f"no node with pre-order id {pre}")

    def node(self, pre: int) -> IntervalNode:
        """The record of pre-order id ``pre``, built from the columns."""
        self._check(pre)
        end, level = self.end[pre], self.level[pre]
        return _record((pre, end - level, end, level, self.parent[pre],
                        self.tags[pre], self.kinds[pre], self.values[pre]))

    def records(self, pres: Iterable[int]) -> list[IntervalNode]:
        """Records of the given pre ids, in the given order (one
        C-level gather per column, no per-node Python frame)."""
        pres = list(pres)
        ends = list(map(self.end.__getitem__, pres))
        levels = list(map(self.level.__getitem__, pres))
        return list(map(_record, zip(
            pres, map(sub, ends, levels), ends, levels,
            map(self.parent.__getitem__, pres),
            map(self.tags.__getitem__, pres),
            map(self.kinds.__getitem__, pres),
            map(self.values.__getitem__, pres))))

    @property
    def nodes(self) -> list[IntervalNode]:
        """Every node as a record, in pre order; cached until the next
        splice."""
        nodes = self._nodes
        if nodes is None:
            nodes = self._nodes = self.records(range(len(self.tags)))
        return nodes

    def by_tag(self, tag: str) -> list[IntervalNode]:
        """All records with the given tag, in document (pre) order —
        the input lists structural-join algorithms consume."""
        return self.records(pre for pre, name in enumerate(self.tags)
                            if name == tag)

    def _child_pres(self, pre: int) -> Iterator[int]:
        """Child pre ids in document order (skips to each child's end)."""
        end = self.end
        child, stop = pre + 1, end[pre]
        while child <= stop:
            yield child
            child = end[child] + 1

    def children_of(self, pre: int) -> Iterator[IntervalNode]:
        """Child records in document order."""
        self._check(pre)
        return iter(self.records(self._child_pres(pre)))

    def string_value(self, pre: int) -> str:
        """Concatenated text content of the subtree at ``pre``."""
        self._check(pre)
        kinds, values = self.kinds, self.values
        if kinds[pre] not in (KIND_ELEMENT, KIND_DOCUMENT):
            return values[pre] or ""
        return "".join(values[index] or ""
                       for index in range(pre + 1, self.end[pre] + 1)
                       if kinds[index] == KIND_TEXT)

    # -- updates (experiment E7) -----------------------------------------------------

    def insert_subtree(self, parent: int, position: int,
                       subtree: model.Element) -> dict[str, int]:
        """Insert ``subtree`` as the ``position``-th element/text child of
        ``parent`` and relabel.  Returns ``{"relabelled": n, ...}`` — the
        cost interval encoding pays that the succinct splice avoids:
        every node at or after the splice point plus every ancestor."""
        self._check(parent)
        if self.kinds[parent] not in (KIND_ELEMENT, KIND_DOCUMENT):
            raise StorageError("can only insert under an element")
        children = [child for child in self._child_pres(parent)
                    if self.kinds[child] != KIND_ATTRIBUTE]
        if position < 0 or position > len(children):
            raise StorageError(f"child position {position} out of range")
        at = (children[position] if position < len(children)
              else self.end[parent] + 1)

        # Shred the new subtree standalone, then rebase its labels: the
        # fragment's document node (pre 0, level 0) becomes ``parent``.
        fragment = IntervalDocument.from_events(
            events_from_tree(_wrap(subtree)))
        block = IntervalDocument()
        block.end = shifted(fragment.end[1:], at - 1)
        block.level = shifted(fragment.level[1:], self.level[parent])
        block.parent = array("q", [pre + at - 1 if pre else parent
                                   for pre in fragment.parent[1:]])
        block.tags = fragment.tags[1:]
        block.kinds = fragment.kinds[1:]
        block.values = fragment.values[1:]
        relabelled = self._splice(parent, at, at, block)
        return {"relabelled": relabelled, "inserted_nodes": len(block),
                "inserted_at": at}

    def delete_subtree(self, pre: int) -> dict[str, int]:
        """Remove the subtree at ``pre`` and relabel everything after it
        plus every ancestor (the global cost insertions also pay)."""
        self._check(pre)
        if pre == 0:
            raise StorageError("cannot delete the document node")
        stop = self.end[pre] + 1
        relabelled = self._splice(self.parent[pre], pre, stop,
                                  IntervalDocument())
        return {"removed_nodes": stop - pre, "relabelled": relabelled}

    def _splice(self, parent: int, start: int, stop: int,
                block: "IntervalDocument") -> int:
        """Replace ``[start, stop)`` under ``parent`` (one whole subtree,
        or nothing) by the already relabelled ``block``.  The suffix and
        the ``end`` of ``parent`` and its ancestors shift by the size
        change; so do suffix ``parent`` entries, except those of the
        later children of ``parent`` and of its ancestors, which are set
        aside around the shift.  Returns the survivors relabelled."""
        delta = len(block) - (stop - start)
        end, parents = self.end, self.parent
        exterior: list[int] = []
        ancestors = 0
        node, child = parent, stop
        while node >= 0:
            while child <= end[node]:
                exterior.append(child)
                child = end[child] + 1
            child = end[node] + 1
            end[node] += delta
            ancestors += 1
            node = parents[node]
        saved = list(map(parents.__getitem__, exterior))
        for pre in exterior:
            parents[pre] = stop      # stays >= 0 through the shift
        end[start:] = block.end + shifted(end[stop:], delta)
        parents[start:] = block.parent + shifted(parents[stop:], delta)
        for pre, value in zip(exterior, saved):
            parents[pre + delta] = value
        self.level[start:stop] = block.level
        self.tags[start:stop] = block.tags
        self.kinds[start:stop] = block.kinds
        self.values[start:stop] = block.values
        self._nodes = None
        return len(self.tags) - start - len(block) + ancestors

    # -- versioning ------------------------------------------------------------------

    def clone(self) -> "IntervalDocument":
        """An independent copy for copy-on-write versioning: six column
        copies, no per-node objects.  Splices mutate the columns in
        place, so the new version must own its own."""
        twin = IntervalDocument()
        twin.uri = self.uri
        twin.end = self.end[:]
        twin.level = self.level[:]
        twin.parent = self.parent[:]
        twin.tags = self.tags[:]
        twin.kinds = self.kinds[:]
        twin.values = self.values[:]
        return twin

    # -- serialization ---------------------------------------------------------------

    def to_snapshot(self) -> dict:
        """Plain-data state for the durability layer.

        The label columns (post, end, level, parent) are stored: ``pre``
        is the position, and tags / kinds / values are shared with the
        succinct store (identical pre-order numbering), so they are
        reconstructed from it at load time instead of being written
        twice.  ``post`` is redundant (``end - level``) and is checked
        on restore.
        """
        return {
            "uri": self.uri,
            "post": list(map(sub, self.end, self.level)),
            "end": self.end.tolist(),
            "level": self.level.tolist(),
            "parent": self.parent.tolist(),
        }

    @classmethod
    def from_snapshot(cls, state: dict,
                      succinct) -> "IntervalDocument":
        """Rebuild the columns verbatim, resolving tags, kinds and leaf
        values through the (already restored) succinct store.  Raises
        :class:`SnapshotCorruptError` when the stored ``post`` column
        disagrees with ``end - level``."""
        document = cls()
        document.uri = state["uri"]
        document.end = array("q", state["end"])
        document.level = array("q", state["level"])
        document.parent = array("q", state["parent"])
        count = len(document.end)
        if count != succinct.node_count:
            raise StorageError(
                f"interval snapshot has {count} records but the succinct "
                f"store holds {succinct.node_count} nodes")
        if state["post"] != list(map(sub, document.end, document.level)):
            raise SnapshotCorruptError(
                "interval snapshot post column disagrees with end - level")
        tags, kinds, values = succinct.columns()
        document.tags = tags
        document.kinds = bytearray(kinds)
        document.values = list(map(values.get, range(count)))
        return document

    # -- accounting -----------------------------------------------------------------

    def size_bytes(self) -> dict[str, int]:
        """Bytes charged per the usual relational layout: pre, post,
        parent as 4-byte integers, level 2 bytes, tag id 2 bytes, a 4-byte
        value reference, plus the value heap and the tag dictionary."""
        per_record = 4 + 4 + 4 + 2 + 2 + 4
        records = per_record * len(self.tags)
        values = sum(len(value.encode("utf-8"))
                     for value in self.values if value)
        tags = sum(len(tag.encode("utf-8")) + 1 for tag in set(self.tags))
        return {
            "records": records,
            "values": values,
            "tag_dictionary": tags,
            "total": records + values + tags,
        }

    def __repr__(self) -> str:
        return f"<IntervalDocument nodes={len(self.tags)}>"


def _wrap(element: model.Element) -> model.Document:
    """Wrap a detached element in a throwaway document for shredding."""
    import copy
    document = model.Document()
    document.append(copy.deepcopy(element))
    return document
