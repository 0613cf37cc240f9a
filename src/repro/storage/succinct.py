"""The succinct document: balanced parentheses + tags + separated content.

This is the storage scheme of Section 4.2 (and of the author's ICDE 2004
paper): the tree is linearised in pre-order; a balanced-parentheses
bitvector records subtree extents; a parallel pre-order array holds tag
symbols; and all character data lives in a separate
:class:`~repro.storage.content.ContentStore`.

Node handles are **pre-order ids** (0 = the document node).  Attributes are
materialised as children that precede the element's other children — this
is how the NoK matcher sees the ``@`` axis as just another local edge, and
it matches streaming arrival order (attributes arrive with the start tag).

The class offers three access styles:

* random navigation (``parent`` / ``first_child`` / ``next_sibling`` ...),
  used by the NoK matcher's navigational core;
* a pre-order **scan** (:meth:`scan`), the single-pass interface whose cost
  is one sequential read of the structure segment — the heart of the
  paper's efficiency argument;
* bulk export (:meth:`tag_postings`) feeding the join-based baselines.

Updates
-------

:meth:`insert_subtree` implements the paper's update story: "each update
only affects a local sub-string".  The BP/tag arrays are spliced locally;
the number of shifted entries is reported so experiment E7 can compare it
with the Θ(n) relabelling of interval encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro.errors import StorageError
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
from repro.storage.bitvector import BitVectorBuilder
from repro.storage.content import ContentStore

__all__ = ["SuccinctDocument", "NodeInfo", "KIND_DOCUMENT", "KIND_ELEMENT",
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
        builder = BitVectorBuilder()
        preorder = 0

        def open_node(tag: str, kind: int) -> int:
            nonlocal preorder
            builder.append(1)
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
                builder.append(0)
                store._content_of[node] = store._content.append(
                    "".join(pending_text), node)
                pending_text.clear()

        for event in events:
            if isinstance(event, StartElement):
                flush_text()
                open_node(event.tag, KIND_ELEMENT)
                for name, value in event.attributes:
                    attr = open_node("@" + name, KIND_ATTRIBUTE)
                    builder.append(0)
                    store._content_of[attr] = store._content.append(
                        value, attr)
            elif isinstance(event, EndElement):
                flush_text()
                builder.append(0)
            elif isinstance(event, Characters):
                pending_text.append(event.value)
            elif isinstance(event, CommentEvent):
                flush_text()
                node = open_node(COMMENT_TAG, KIND_COMMENT)
                builder.append(0)
                store._content_of[node] = store._content.append(
                    event.value, node)
            elif isinstance(event, PIEvent):
                flush_text()
                node = open_node("?" + event.target, KIND_PI)
                builder.append(0)
                store._content_of[node] = store._content.append(
                    event.data, node)
            elif isinstance(event, StartDocument):
                store.uri = event.uri
                open_node(DOCUMENT_TAG, KIND_DOCUMENT)
            elif isinstance(event, EndDocument):
                flush_text()
                builder.append(0)
        store._bp = BalancedParens(builder.build())
        return store

    @classmethod
    def from_document(cls, document: model.Document) -> "SuccinctDocument":
        """Build from an in-memory tree."""
        return cls.from_events(events_from_tree(document))

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

    def content_ids_in(self, preorder: int, count: int) -> list[int]:
        """Content ids owned by nodes in ``[preorder, preorder+count)``.

        Incremental value-index maintenance collects these *before* a
        subtree deletion tombstones them.
        """
        return [content_id
                for owner, content_id in self._content_of.items()
                if preorder <= owner < preorder + count]

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
        new_content: list[tuple[int, str]] = []  # (relative preorder, text)

        def encode(element: model.Element) -> None:
            new_bits.append(1)
            new_tags.append(self._intern(element.tag))
            new_kinds.append(KIND_ELEMENT)
            for attribute in element.attributes():
                index = len(new_tags)
                new_bits.append(1)
                new_tags.append(self._intern("@" + attribute.attr_name))
                new_kinds.append(KIND_ATTRIBUTE)
                new_bits.append(0)
                new_content.append((index, attribute.value))
            for child in element.children():
                if isinstance(child, model.Element):
                    encode(child)
                elif isinstance(child, model.Text):
                    index = len(new_tags)
                    new_bits.append(1)
                    new_tags.append(self._intern(TEXT_TAG))
                    new_kinds.append(KIND_TEXT)
                    new_bits.append(0)
                    new_content.append((index, child.value))
            new_bits.append(0)

        encode(subtree)
        inserted = len(new_tags)

        # Splice the pre-order arrays.
        self._tags[insert_at:insert_at] = new_tags
        self._kinds[insert_at:insert_at] = bytes(new_kinds)

        old_bits = self.bp.bits
        self._bp = BalancedParens(
            old_bits.splice(anchor_position, anchor_position, new_bits))

        # Renumber content ownership at or after the insertion point —
        # in both directions: the preorder->content map and the content
        # store's owner column (value indexes rebuild from the latter).
        shifted_content = {}
        for owner, content_id in self._content_of.items():
            new_owner = owner + inserted if owner >= insert_at else owner
            shifted_content[new_owner] = content_id
            self._content.set_owner(content_id, new_owner)
        self._content_of = shifted_content
        for relative, text in new_content:
            node = insert_at + relative
            self._content_of[node] = self._content.append(text, node)

        return {
            "shifted_entries": len(self._tags) - insert_at - inserted,
            "inserted_nodes": inserted,
            "inserted_at": insert_at,
            "bp_bits_moved": len(old_bits) - anchor_position,
            # The heap is append-only, so the new entries are exactly the
            # last ``content_appended`` content ids — incremental value
            # indexes pick them up from the tail.
            "content_appended": len(new_content),
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

        # Content entries of deleted nodes are dropped from the mapping
        # and *tombstoned* in the heap (owner = -1), so value indexes that
        # reference stable content ids can skip them lazily; survivors
        # renumber.  (An append-only heap compacts on rebuild, like a real
        # slotted store would vacuum.)
        shifted: dict[int, int] = {}
        dropped = 0
        for owner, content_id in self._content_of.items():
            if preorder <= owner < preorder + removed:
                self._content.mark_dead(content_id)
                dropped += 1
                continue
            new_owner = owner - removed if owner >= preorder + removed \
                else owner
            shifted[new_owner] = content_id
            self._content.set_owner(content_id, new_owner)
        self._content_of = shifted
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

    @classmethod
    def from_snapshot(cls, state: dict) -> "SuccinctDocument":
        """Rebuild a succinct store verbatim from :meth:`to_snapshot`
        output — no event stream, no XML parsing."""
        from repro.storage.bitvector import BitVector

        store = cls()
        store.uri = state["uri"]
        store._bp = BalancedParens(BitVector.from_snapshot(state["bp"]))
        store._tags = list(state["tags"])
        store._kinds = bytearray(state["kinds"])
        store._symbols = list(state["symbols"])
        store._symbol_ids = {tag: symbol
                             for symbol, tag in enumerate(store._symbols)}
        store._content = ContentStore.from_snapshot(state["content"])
        store._content_of = dict(zip(state["content_owners"],
                                     state["content_ids"]))
        if len(store._tags) != len(store._kinds):
            raise StorageError(
                "snapshot tag/kind arrays disagree in length")
        return store

    def clone(self) -> "SuccinctDocument":
        """An independent copy for copy-on-write versioning.

        Every mutable column (tags, kinds, symbol table, content heap,
        preorder→content map) is copied, so the in-place splices of
        :meth:`insert_subtree`/:meth:`delete_subtree` on the clone never
        show through a reader pinned on the original.  The balanced-
        parentheses directory is **shared**: :class:`BalancedParens` is
        read-only after construction and both update paths replace
        ``_bp`` wholesale with a freshly built instance, so the shared
        object can never be patched under a pinned reader.
        """
        twin = SuccinctDocument()
        twin.uri = self.uri
        twin._bp = self._bp
        twin._tags = list(self._tags)
        twin._kinds = bytearray(self._kinds)
        twin._symbols = list(self._symbols)
        twin._symbol_ids = dict(self._symbol_ids)
        twin._content = self._content.clone()
        twin._content_of = dict(self._content_of)
        return twin

    def columns(self) -> tuple[list[str], bytearray, dict[int, str]]:
        """Batch view for restore paths: (resolved tag per preorder,
        kind bytes, {preorder: content string}).  One pass over the
        internal arrays instead of per-node ``tag()``/``kind()``/
        ``text_of()`` calls (each of which bounds-checks)."""
        symbols = self._symbols
        tags = [symbols[symbol] for symbol in self._tags]
        content = self._content
        values = {pre: content.get(content_id)
                  for pre, content_id in self._content_of.items()}
        return tags, self._kinds, values

    # -- accounting --------------------------------------------------------------

    def size_bytes(self) -> dict[str, int]:
        """Per-component byte accounting (experiment E1).

        Tags are charged at ``ceil(log2 |alphabet|)`` bits each (the paper's
        succinct tag coding); kinds at 3 bits; content references at 4
        bytes per content entry.
        """
        tag_bits = max(1, (max(len(self._symbols), 2) - 1).bit_length())
        structure = self.bp.size_bytes()
        tags = (tag_bits * len(self._tags) + 7) // 8
        symbol_table = sum(len(s.encode("utf-8")) + 1 for s in self._symbols)
        kinds = (3 * len(self._kinds) + 7) // 8
        content_refs = 8 * len(self._content_of)
        content = self._content.size_bytes()
        total = structure + tags + symbol_table + kinds + content_refs + content
        return {
            "structure": structure,
            "tags": tags,
            "symbol_table": symbol_table,
            "kinds": kinds,
            "content_refs": content_refs,
            "content": content,
            "total": total,
        }

    def __repr__(self) -> str:
        return f"<SuccinctDocument nodes={self.node_count} uri={self.uri!r}>"
