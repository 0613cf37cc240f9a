"""The succinct document: balanced parentheses + tags + separated content.

This is the storage scheme of Section 4.2 (and of the author's ICDE 2004
paper): the tree is linearised in pre-order; a balanced-parentheses
bitvector records subtree extents; a parallel pre-order array holds tag
symbols; and all character data lives in a separate
:class:`~repro.storage.content.ContentStore`.

It is the paper's **storage format**, not the engine's in-memory copy.
A database version keeps the same pre-order linearisation once, as the
``level``/``tags``/``kinds`` label columns of
:class:`~repro.storage.interval.IntervalDocument` next to its own
content heap; :meth:`SuccinctDocument.from_columns` encodes that form on
demand (checkpoints write it, E1 reports its size), and
:func:`decode_snapshot` reads a written one straight back into columns.
The NoK matcher charges its scan to a structure segment sized by
:func:`encoded_sizes`, the formula :meth:`SuccinctDocument.size_bytes`
uses too.

Node handles are **pre-order ids** (0 = the document node).  Attributes are
materialised as children that precede the element's other children — this
is how the NoK matcher sees the ``@`` axis as just another local edge, and
it matches streaming arrival order (attributes arrive with the start tag).

The class offers three access styles:

* random navigation (``parent`` / ``first_child`` / ``next_sibling`` ...)
  by excess arithmetic on the parentheses;
* a pre-order **scan** (:meth:`scan`), the single-pass interface whose cost
  is one sequential read of the structure segment — the heart of the
  paper's efficiency argument;
* bulk export (:meth:`tag_postings`).

Updates
-------

:meth:`insert_subtree` implements the paper's update story: "each update
only affects a local sub-string".  The BP/tag arrays are spliced locally;
the number of shifted entries is reported so experiment E7 can compare it
with the Θ(n) relabelling of interval encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from operator import sub
from typing import Iterable, Iterator, Optional, Sequence

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
from repro.storage.balanced_parens import BalancedParens
from repro.storage.bitvector import WORD_BITS, BitVector
from repro.storage.content import ContentStore

__all__ = ["SuccinctDocument", "NodeInfo", "encoded_sizes", "bp_bits",
           "decode_snapshot", "KIND_DOCUMENT", "KIND_ELEMENT",
           "KIND_ATTRIBUTE", "KIND_TEXT", "KIND_COMMENT", "KIND_PI"]

KIND_DOCUMENT = 0
KIND_ELEMENT = 1
KIND_ATTRIBUTE = 2
KIND_TEXT = 3
KIND_COMMENT = 4
KIND_PI = 5

DOCUMENT_TAG = "#document"
TEXT_TAG = "#text"
COMMENT_TAG = "#comment"


def encoded_sizes(node_count: int, alphabet_size: int) -> dict[str, int]:
    """Bytes of the structure segment's parts for ``node_count`` nodes
    over ``alphabet_size`` distinct tags (experiment E1's charges).

    ``structure`` is the 2n BP bits plus the bitvector's rank directory
    (8 bytes per word, one extra entry) and the excess directory
    (6 bytes per word); tags are charged at ``ceil(log2 |alphabet|)``
    bits each (the paper's succinct tag coding) and kinds at 3 bits.
    """
    bits = 2 * node_count
    words = -(-bits // WORD_BITS)
    tag_bits = max(1, (max(alphabet_size, 2) - 1).bit_length())
    return {
        "structure": (bits + 7) // 8 + 8 * (words + 1) + 6 * words,
        "tags": (tag_bits * node_count + 7) // 8,
        "kinds": (3 * node_count + 7) // 8,
    }


def bp_bits(level: Sequence[int]) -> BitVector:
    """The balanced parentheses of a pre-order ``level`` column.

    Node ``i`` opens after one close per level it climbs from node
    ``i - 1`` (``level[i-1] + 1 - level[i]``); the last node is followed
    by ``level[-1] + 1`` closes.  Raises :class:`StorageError` when
    ``level`` is not the depth column of a tree rooted at node 0.
    """
    if not level:
        return BitVector([], 0)
    drops = list(map(sub, map((1).__add__, level), islice(level, 1, None)))
    if level[0] != 0 or min(drops, default=0) < 0:
        raise StorageError("not the level column of a pre-order tree")
    runs = [b"\x00" * closes + b"\x01"
            for closes in range(max(drops, default=0) + 1)]
    return BitVector.from_bytes(b"".join(chain(
        (b"\x01",), map(runs.__getitem__, drops),
        (b"\x00" * (level[-1] + 1),))))


def decode_snapshot(state: dict, level: Sequence[int],
                    content: ContentStore
                    ) -> tuple[list[str], bytearray, list[Optional[str]]]:
    """The ``(tags, kinds, values)`` pre-order columns of a
    :meth:`SuccinctDocument.to_snapshot` state, read straight off its
    arrays (no :class:`BalancedParens` is built).  Values resolve
    through ``content``, the heap decoded from the same state.

    Raises :class:`SnapshotCorruptError` when the arrays disagree with
    ``level`` on the node count, or when the BP bits are not the
    encoding of ``level`` (which also rejects unbalanced bits).
    """
    count = len(level)
    if not len(state["tags"]) == len(state["kinds"]) == count:
        raise SnapshotCorruptError(
            f"succinct snapshot holds {len(state['tags'])} tags and "
            f"{len(state['kinds'])} kinds for {count} nodes")
    try:
        expected = bp_bits(level).to_snapshot()
    except StorageError as error:
        raise SnapshotCorruptError(str(error)) from error
    stored = state["bp"]
    if (stored["length"] != expected["length"]
            or bytes(stored["words"]) != expected["words"]):
        raise SnapshotCorruptError(
            "succinct BP bits disagree with the level column")
    symbols = state["symbols"]
    values: list[Optional[str]] = [None] * count
    for owner, content_id in zip(state["content_owners"],
                                 state["content_ids"]):
        values[owner] = content.get(content_id)
    return (list(map(symbols.__getitem__, state["tags"])),
            bytearray(state["kinds"]), values)


@dataclass(frozen=True)
class NodeInfo:
    """A decoded view of one stored node (for debugging and tests)."""

    preorder: int
    tag: str
    kind: int
    depth: int
    subtree_size: int


class SuccinctDocument:
    """Succinct storage of one XML document."""

    def __init__(self):
        self._bp: Optional[BalancedParens] = None
        self._tags: list[int] = []          # pre-order tag symbol ids
        self._kinds = bytearray()           # pre-order node kinds
        self._symbols: list[str] = []       # symbol id -> tag string
        self._symbol_ids: dict[str, int] = {}
        self._content = ContentStore()
        self._content_of: dict[int, int] = {}   # preorder -> content id
        self.uri = ""

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_events(cls, events: Iterable[Event]) -> "SuccinctDocument":
        """Build from a parse-event stream in a single pass."""
        store = cls()
        bits = bytearray()        # one byte per BP bit
        preorder = 0

        def open_node(tag: str, kind: int) -> int:
            nonlocal preorder
            bits.append(1)
            store._tags.append(store._intern(tag))
            store._kinds.append(kind)
            node = preorder
            preorder += 1
            return node

        # Adjacent Characters events merge into one text node; every
        # structural event flushes first, so pending text always belongs
        # to the currently open node.
        pending_text: list[str] = []

        def flush_text() -> None:
            if pending_text:
                node = open_node(TEXT_TAG, KIND_TEXT)
                bits.append(0)
                store._content_of[node] = store._content.append(
                    "".join(pending_text), node)
                pending_text.clear()

        for event in events:
            if isinstance(event, StartElement):
                flush_text()
                open_node(event.tag, KIND_ELEMENT)
                for name, value in event.attributes:
                    attr = open_node("@" + name, KIND_ATTRIBUTE)
                    bits.append(0)
                    store._content_of[attr] = store._content.append(
                        value, attr)
            elif isinstance(event, EndElement):
                flush_text()
                bits.append(0)
            elif isinstance(event, Characters):
                pending_text.append(event.value)
            elif isinstance(event, CommentEvent):
                flush_text()
                node = open_node(COMMENT_TAG, KIND_COMMENT)
                bits.append(0)
                store._content_of[node] = store._content.append(
                    event.value, node)
            elif isinstance(event, PIEvent):
                flush_text()
                node = open_node("?" + event.target, KIND_PI)
                bits.append(0)
                store._content_of[node] = store._content.append(
                    event.data, node)
            elif isinstance(event, StartDocument):
                store.uri = event.uri
                open_node(DOCUMENT_TAG, KIND_DOCUMENT)
            elif isinstance(event, EndDocument):
                flush_text()
                bits.append(0)
        store._bp = BalancedParens(BitVector.from_bytes(bytes(bits)))
        return store

    @classmethod
    def from_document(cls, document: model.Document) -> "SuccinctDocument":
        """Build from an in-memory tree."""
        return cls.from_events(events_from_tree(document))

    @classmethod
    def from_columns(cls, interval, content: ContentStore
                     ) -> "SuccinctDocument":
        """Encode a document held as label columns (an
        :class:`~repro.storage.interval.IntervalDocument`) and its
        content heap: BP from the ``level`` column, tag symbols interned
        in pre order, the kind bytes, and a copy of the heap (content
        ids and tombstones kept, so the copy's owners are the
        pre→content map)."""
        store = cls()
        store.uri = interval.uri
        store._bp = BalancedParens(bp_bits(interval.level))
        store._tags = list(map(store._intern, interval.tags))
        store._kinds = bytearray(interval.kinds)
        store._content = content.clone()
        store._content_of = store._content.owner_map()
        return store

    def _intern(self, tag: str) -> int:
        symbol = self._symbol_ids.get(tag)
        if symbol is None:
            symbol = len(self._symbols)
            self._symbols.append(tag)
            self._symbol_ids[tag] = symbol
        return symbol

    # -- basic properties ----------------------------------------------------------

    @property
    def bp(self) -> BalancedParens:
        if self._bp is None:
            raise StorageError("document not built")
        return self._bp

    @property
    def node_count(self) -> int:
        """Total stored nodes, including the document node."""
        return len(self._tags)

    @property
    def content(self) -> ContentStore:
        """The separated content store."""
        return self._content

    @property
    def alphabet(self) -> list[str]:
        """The tag symbol table (position = symbol id)."""
        return list(self._symbols)

    def _check(self, preorder: int) -> None:
        if preorder < 0 or preorder >= len(self._tags):
            raise StorageError(f"no node with pre-order id {preorder}")

    # -- per-node accessors -----------------------------------------------------------

    def tag(self, preorder: int) -> str:
        """Tag of the node: element name, ``@name`` for attributes,
        ``#text`` / ``#comment`` / ``?target`` for other leaves."""
        self._check(preorder)
        return self._symbols[self._tags[preorder]]

    def tag_id(self, preorder: int) -> int:
        """The interned symbol id of the node's tag."""
        self._check(preorder)
        return self._tags[preorder]

    def symbol_of(self, tag: str) -> Optional[int]:
        """Symbol id for ``tag``, or ``None`` if the tag never occurs."""
        return self._symbol_ids.get(tag)

    def kind(self, preorder: int) -> int:
        """One of the ``KIND_*`` constants."""
        self._check(preorder)
        return self._kinds[preorder]

    def text_of(self, preorder: int) -> Optional[str]:
        """Directly attached content (text / attribute value / comment /
        PI data), or ``None`` for structural nodes."""
        self._check(preorder)
        content_id = self._content_of.get(preorder)
        return None if content_id is None else self._content.get(content_id)

    def string_value(self, preorder: int) -> str:
        """XPath string value: concatenated text content of the subtree
        (attribute values are their own string value)."""
        self._check(preorder)
        if self._kinds[preorder] != KIND_ELEMENT and preorder != 0:
            return self.text_of(preorder) or ""
        parts: list[str] = []
        end = preorder + self.subtree_size(preorder)
        for node in range(preorder, end):
            if self._kinds[node] == KIND_TEXT:
                parts.append(self.text_of(node) or "")
        return "".join(parts)

    # -- navigation (pre-order handles) -----------------------------------------------

    def parent(self, preorder: int) -> Optional[int]:
        """Parent node id, or ``None`` for the document node."""
        self._check(preorder)
        position = self.bp.position(preorder)
        enclosing = self.bp.enclose(position)
        return None if enclosing is None else self.bp.preorder(enclosing)

    def first_child(self, preorder: int) -> Optional[int]:
        """First child id (attributes come first), or ``None``."""
        self._check(preorder)
        position = self.bp.first_child(self.bp.position(preorder))
        return None if position is None else self.bp.preorder(position)

    def next_sibling(self, preorder: int) -> Optional[int]:
        """Next sibling id, or ``None``."""
        self._check(preorder)
        position = self.bp.next_sibling(self.bp.position(preorder))
        return None if position is None else self.bp.preorder(position)

    def children(self, preorder: int) -> Iterator[int]:
        """Children in order (attribute nodes first)."""
        child = self.first_child(preorder)
        while child is not None:
            yield child
            child = self.next_sibling(child)

    def attributes(self, preorder: int) -> Iterator[int]:
        """Attribute children only."""
        for child in self.children(preorder):
            if self._kinds[child] != KIND_ATTRIBUTE:
                break
            yield child

    def depth(self, preorder: int) -> int:
        """Depth (document node = 0)."""
        self._check(preorder)
        return self.bp.depth(self.bp.position(preorder))

    def subtree_size(self, preorder: int) -> int:
        """Number of nodes in the subtree rooted at ``preorder``."""
        self._check(preorder)
        return self.bp.subtree_size(self.bp.position(preorder))

    def is_ancestor(self, ancestor: int, descendant: int) -> bool:
        """Proper ancestorship via the pre-order interval property."""
        self._check(ancestor)
        self._check(descendant)
        return (ancestor < descendant
                < ancestor + self.subtree_size(ancestor))

    def info(self, preorder: int) -> NodeInfo:
        """A decoded record for the node (tests, EXPLAIN, debugging)."""
        return NodeInfo(preorder=preorder, tag=self.tag(preorder),
                        kind=self.kind(preorder),
                        depth=self.depth(preorder),
                        subtree_size=self.subtree_size(preorder))

    # -- scans ----------------------------------------------------------------------

    def scan(self, root: int = 0) -> Iterator[tuple[str, int]]:
        """Single-pass pre-order scan of the subtree at ``root``.

        Yields ``("start", preorder)`` and ``("end", preorder)`` pairs in
        document order — exactly the streaming arrival order (Section 4.2).
        The NoK matcher consumes this stream; its I/O cost is one
        sequential read of the structure segment.
        """
        self._check(root)
        stack: list[int] = []
        last = root + self.subtree_size(root)
        position = self.bp.position(root)
        end_position = self.bp.find_close(position)
        words = self.bp.bits._words
        preorder = root
        index = position
        # Word-chunked iteration: one word fetch per 64 parentheses keeps
        # the single pass cheap (this loop IS the sequential scan whose
        # I/O cost the NoK argument rests on).
        while index <= end_position:
            word = words[index >> 6]
            offset = index & 63
            limit = min(64, end_position - index + offset + 1)
            while offset < limit:
                if (word >> offset) & 1:
                    yield ("start", preorder)
                    stack.append(preorder)
                    preorder += 1
                else:
                    yield ("end", stack.pop())
                offset += 1
            index += limit - (index & 63)
        if preorder != last:  # pragma: no cover - structural invariant
            raise StorageError("scan desynchronised from BP structure")

    def element_ids(self, tag: Optional[str] = None) -> Iterator[int]:
        """All element node ids (optionally with the given tag) in
        document order — a full pre-order array scan."""
        symbol = None
        if tag is not None:
            symbol = self._symbol_ids.get(tag)
            if symbol is None:
                return
        for preorder, kind in enumerate(self._kinds):
            if kind != KIND_ELEMENT:
                continue
            if symbol is None or self._tags[preorder] == symbol:
                yield preorder

    def tag_postings(self) -> dict[str, list[int]]:
        """tag -> sorted pre-order ids, for building a
        :class:`~repro.storage.tagindex.TagIndex`."""
        postings: dict[str, list[int]] = {}
        for preorder, symbol in enumerate(self._tags):
            postings.setdefault(self._symbols[symbol], []).append(preorder)
        return postings

    # -- updates ------------------------------------------------------------------

    def insert_subtree(self, parent: int, position: int,
                       subtree: model.Element) -> dict[str, int]:
        """Insert ``subtree`` as the ``position``-th child of ``parent``.

        Splices the BP/tag/kind arrays locally, renumbering only nodes at
        or after the insertion point.  Returns update-cost metrics for
        experiment E7::

            {"shifted_entries": ..., "inserted_nodes": ..., "bp_bits_moved": ...}

        The metrics charge exactly the entries the splice moves: the
        tag/kind arrays shift by slice assignment and the BP bits by
        :meth:`BitVector.splice` on the packed words.
        """
        self._check(parent)
        if self._kinds[parent] not in (KIND_ELEMENT, KIND_DOCUMENT):
            raise StorageError("can only insert under an element")
        children = [c for c in self.children(parent)
                    if self._kinds[c] != KIND_ATTRIBUTE]
        if position < 0 or position > len(children):
            raise StorageError(f"child position {position} out of range")
        if position == len(children):
            anchor_position = self.bp.find_close(self.bp.position(parent))
        else:
            anchor_position = self.bp.position(children[position])
        insert_at = self.bp.preorder(anchor_position)

        # Encode the new subtree.
        new_bits: list[int] = []
        new_tags: list[int] = []
        new_kinds: list[int] = []
        new_values: list[Optional[str]] = []    # leaf content, else None

        def leaf(tag: str, kind: int, value: str) -> None:
            new_bits.extend((1, 0))
            new_tags.append(self._intern(tag))
            new_kinds.append(kind)
            new_values.append(value)

        def encode(element: model.Element) -> None:
            new_bits.append(1)
            new_tags.append(self._intern(element.tag))
            new_kinds.append(KIND_ELEMENT)
            new_values.append(None)
            for attribute in element.attributes():
                leaf("@" + attribute.attr_name, KIND_ATTRIBUTE,
                     attribute.value)
            for child in element.children():
                if isinstance(child, model.Element):
                    encode(child)
                elif isinstance(child, model.Text):
                    leaf(TEXT_TAG, KIND_TEXT, child.value)
            new_bits.append(0)

        encode(subtree)
        inserted = len(new_tags)

        # Splice the pre-order arrays.
        self._tags[insert_at:insert_at] = new_tags
        self._kinds[insert_at:insert_at] = bytes(new_kinds)

        old_bits = self.bp.bits
        self._bp = BalancedParens(
            old_bits.splice(anchor_position, anchor_position, new_bits))

        # The heap renumbers owners at or after the insertion point and
        # appends the new leaves; the pre->content map follows it.
        self._content.splice(insert_at, insert_at, new_values)
        self._content_of = self._content.owner_map()

        return {
            "shifted_entries": len(self._tags) - insert_at - inserted,
            "inserted_nodes": inserted,
            "inserted_at": insert_at,
            "bp_bits_moved": len(old_bits) - anchor_position,
            # The heap is append-only, so the new entries are exactly the
            # last ``content_appended`` content ids — incremental value
            # indexes pick them up from the tail.
            "content_appended": len(new_values) - new_values.count(None),
        }

    def delete_subtree(self, preorder: int) -> dict[str, int]:
        """Remove the subtree rooted at ``preorder`` (splice, like
        :meth:`insert_subtree` in reverse).  Returns the update metrics.

        The document node itself cannot be deleted.
        """
        self._check(preorder)
        if preorder == 0:
            raise StorageError("cannot delete the document node")
        removed = self.subtree_size(preorder)
        open_position = self.bp.position(preorder)
        close_position = self.bp.find_close(open_position)
        old_bits = self.bp.bits

        del self._tags[preorder:preorder + removed]
        del self._kinds[preorder:preorder + removed]

        self._bp = BalancedParens(
            old_bits.splice(open_position, close_position + 1))

        # Content entries of deleted nodes are *tombstoned* in the heap
        # (owner = -1), so value indexes that reference stable content
        # ids can skip them lazily; survivors renumber.  (An append-only
        # heap compacts on rebuild, like a real slotted store would
        # vacuum.)
        dropped = len(self._content.splice(preorder, preorder + removed))
        self._content_of = self._content.owner_map()
        return {
            "removed_nodes": removed,
            "shifted_entries": len(self._tags) - preorder,
            "bp_bits_moved": len(old_bits) - close_position - 1,
            "content_dropped": dropped,
        }

    # -- serialization -----------------------------------------------------------

    def to_snapshot(self) -> dict:
        """Plain-data state for the durability layer: BP bits, tag-symbol
        array, kind bytes, symbol table, content heap, and the
        preorder→content mapping (as two parallel arrays)."""
        owners = sorted(self._content_of)
        return {
            "uri": self.uri,
            "bp": self.bp.bits.to_snapshot(),
            "tags": list(self._tags),
            "kinds": bytes(self._kinds),
            "symbols": list(self._symbols),
            "content_owners": owners,
            "content_ids": [self._content_of[owner] for owner in owners],
            "content": self._content.to_snapshot(),
        }

    # -- accounting --------------------------------------------------------------

    def size_bytes(self) -> dict[str, int]:
        """Per-component byte accounting (experiment E1).

        Structure, tags and kinds are charged by :func:`encoded_sizes`
        (the formula the structure segment is sized by); content
        references at 8 bytes per live content entry.
        """
        sizes = encoded_sizes(self.node_count, len(self._symbols))
        symbol_table = sum(len(s.encode("utf-8")) + 1 for s in self._symbols)
        content_refs = 8 * len(self._content_of)
        content = self._content.size_bytes()
        total = sum(sizes.values()) + symbol_table + content_refs + content
        return {
            "structure": sizes["structure"],
            "tags": sizes["tags"],
            "symbol_table": symbol_table,
            "kinds": sizes["kinds"],
            "content_refs": content_refs,
            "content": content,
            "total": total,
        }

    def __repr__(self) -> str:
        return f"<SuccinctDocument nodes={self.node_count} uri={self.uri!r}>"
