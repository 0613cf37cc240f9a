"""The XML tree data model: labelled, ordered, rooted trees.

The paper models XML documents as labelled ordered trees (sort ``Tree`` in
the algebra).  This module provides that model as a small class hierarchy:

* :class:`Document` — the root of a tree; owns exactly one document element.
* :class:`Element` — a labelled interior node with attributes and children.
* :class:`Text` / :class:`Comment` / :class:`ProcessingInstruction` — leaves.
* :class:`Attribute` — name/value pairs attached to elements; attributes
  participate in the ``attribute`` axis but are not children.

Document order
--------------

Many physical operators (structural joins, TwigStack, duplicate elimination)
need the classic *(pre, post, level)* annotation.  Because the model is
mutable, the annotation is computed on demand by :meth:`Document.reindex`
and cached; any structural mutation invalidates it.  ``node.pre``,
``node.post``, ``node.level`` and ``node.size`` trigger reindexing lazily.

Axes
----

Each node exposes generator methods for the XPath axes used by the paper's
path fragment: ``children()``, ``descendants()``, ``descendant_or_self()``,
``ancestors()``, ``following_siblings()``, ``preceding_siblings()`` and
``attributes()`` (elements only).
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterable, Iterator, Optional

__all__ = [
    "NodeKind",
    "Node",
    "Document",
    "Element",
    "Attribute",
    "Text",
    "Comment",
    "ProcessingInstruction",
]


class NodeKind(enum.Enum):
    """Kind tags for the node classes (useful for dispatch without
    isinstance chains, and for compact storage encodings)."""

    DOCUMENT = "document"
    ELEMENT = "element"
    ATTRIBUTE = "attribute"
    TEXT = "text"
    COMMENT = "comment"
    PROCESSING_INSTRUCTION = "processing-instruction"


_ids = itertools.count()


class Node:
    """Common behaviour of all tree nodes.

    Nodes have identity (two nodes are equal only if they are the same
    object) and a stable ``node_id`` assigned at construction, used for
    hashing and debugging.  Structural position (``pre``, ``post``,
    ``level``, ``size``) is maintained by the owning :class:`Document`.
    """

    kind: NodeKind
    __slots__ = ("parent", "node_id", "_pre", "_post", "_level", "_size")

    def __init__(self):
        self.parent: Optional[Node] = None
        self.node_id: int = next(_ids)
        self._pre = -1
        self._post = -1
        self._level = -1
        self._size = -1

    # -- identity ---------------------------------------------------------

    def __hash__(self) -> int:
        return self.node_id

    def __eq__(self, other: object) -> bool:
        return self is other

    # -- document / order -------------------------------------------------

    @property
    def document(self) -> Optional["Document"]:
        """The :class:`Document` this node belongs to, or ``None``."""
        node: Node = self
        while node.parent is not None:
            node = node.parent
        return node if isinstance(node, Document) else None

    def _ensure_indexed(self) -> None:
        doc = self.document
        if doc is None:
            raise ValueError(
                f"node {self!r} is detached; document order is undefined")
        if not doc._index_valid:
            doc.reindex()

    @property
    def pre(self) -> int:
        """Pre-order rank of this node within its document (root = 0)."""
        self._ensure_indexed()
        return self._pre

    @property
    def post(self) -> int:
        """Post-order rank of this node within its document."""
        self._ensure_indexed()
        return self._post

    @property
    def level(self) -> int:
        """Depth of this node (document node = 0, document element = 1)."""
        self._ensure_indexed()
        return self._level

    @property
    def size(self) -> int:
        """Number of nodes in the subtree rooted here (including self)."""
        self._ensure_indexed()
        return self._size

    def is_ancestor_of(self, other: "Node") -> bool:
        """True iff ``self`` is a proper ancestor of ``other``.

        Uses the interval property: *a* is an ancestor of *d* iff
        ``a.pre < d.pre`` and ``d.pre < a.pre + a.size`` within one document.
        """
        if self.document is not other.document or self.document is None:
            return False
        return self.pre < other.pre < self.pre + self.size

    def before(self, other: "Node") -> bool:
        """True iff ``self`` precedes ``other`` in document order."""
        return self.pre < other.pre

    # -- axes --------------------------------------------------------------

    def children(self) -> Iterator["Node"]:
        """The child axis (empty for leaf kinds)."""
        return iter(())

    def descendants(self) -> Iterator["Node"]:
        """The descendant axis, in document order (iterative, so deep
        documents do not hit the recursion limit)."""
        stack: list[Iterator[Node]] = [self.children()]
        while stack:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
                continue
            yield child
            stack.append(child.children())

    def descendant_or_self(self) -> Iterator["Node"]:
        """The descendant-or-self axis, in document order."""
        yield self
        yield from self.descendants()

    def ancestors(self) -> Iterator["Node"]:
        """The ancestor axis, nearest first."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def ancestor_or_self(self) -> Iterator["Node"]:
        """The ancestor-or-self axis, self first."""
        yield self
        yield from self.ancestors()

    def following_siblings(self) -> Iterator["Node"]:
        """Siblings after this node, in document order."""
        if self.parent is None:
            return
        seen_self = False
        for sibling in self.parent.children():
            if seen_self:
                yield sibling
            elif sibling == self:
                seen_self = True

    def preceding_siblings(self) -> Iterator["Node"]:
        """Siblings before this node, in reverse document order."""
        if self.parent is None:
            return
        before: list[Node] = []
        for sibling in self.parent.children():
            if sibling == self:
                break
            before.append(sibling)
        yield from reversed(before)

    # -- content ------------------------------------------------------------

    def string_value(self) -> str:
        """The XPath string value (concatenated descendant text)."""
        raise NotImplementedError

    @property
    def name(self) -> Optional[str]:
        """The node name (tag for elements, name for attributes/PIs)."""
        return None


class _ParentNode(Node):
    """Shared implementation for nodes that hold an ordered child list."""

    __slots__ = ("_children",)

    def __init__(self):
        super().__init__()
        self._children: list[Node] = []

    def children(self) -> Iterator[Node]:
        return iter(self._children)

    def __len__(self) -> int:
        return len(self._children)

    def __getitem__(self, index: int) -> Node:
        return self._children[index]

    def _invalidate(self) -> None:
        doc = self.document
        if doc is not None:
            doc._index_valid = False

    def append(self, child: Node) -> Node:
        """Append ``child`` as the last child and return it."""
        if child.parent is not None:
            raise ValueError("node already has a parent; detach it first")
        if isinstance(child, (Document, Attribute)):
            raise TypeError(f"{child.kind.value} nodes cannot be children")
        child.parent = self
        self._children.append(child)
        self._invalidate()
        return child

    def adopt(self, child: Node) -> Node:
        """Bulk-construction fast path: append a *freshly created*,
        detached child without validation or index invalidation.

        Only for building a new tree bottom-up (snapshot recovery,
        generators): the caller guarantees ``child`` has no parent and
        the document is not yet indexed, so the O(depth) walk
        ``_invalidate`` performs per append is pure waste."""
        child.parent = self
        self._children.append(child)
        return child

    def insert(self, index: int, child: Node) -> Node:
        """Insert ``child`` before position ``index`` and return it."""
        if child.parent is not None:
            raise ValueError("node already has a parent; detach it first")
        if isinstance(child, (Document, Attribute)):
            raise TypeError(f"{child.kind.value} nodes cannot be children")
        child.parent = self
        self._children.insert(index, child)
        self._invalidate()
        return child

    def remove(self, child: Node) -> Node:
        """Detach ``child`` from this node and return it."""
        self._children.remove(child)  # raises ValueError if absent
        child.parent = None
        self._invalidate()
        return child

    def string_value(self) -> str:
        parts: list[str] = []
        for node in self.descendants():
            if isinstance(node, Text):
                parts.append(node.value)
        return "".join(parts)


class Document(_ParentNode):
    """The document node: the root of a tree.

    A document has exactly one :class:`Element` child (the *document
    element*), possibly surrounded by comments and processing instructions.
    """

    kind = NodeKind.DOCUMENT
    __slots__ = ("_index_valid", "uri")

    def __init__(self, uri: str = ""):
        super().__init__()
        self._index_valid = False
        self.uri = uri

    @property
    def root(self) -> Element:
        """The document element.  Raises ``ValueError`` if absent."""
        for child in self._children:
            if isinstance(child, Element):
                return child
        raise ValueError("document has no document element")

    def reindex(self) -> None:
        """(Re)compute pre/post/level/size for the whole tree, iteratively
        so deep documents do not hit the recursion limit."""
        pre = 0
        post = 0
        # Stack of (node, level, child_iterator); a node's post rank and
        # size are assigned when its iterator is exhausted.
        stack: list[tuple[Node, int, Iterator[Node]]] = [
            (self, 0, self.children())]
        self._pre, self._level = 0, 0
        pre = 1
        sizes: dict[int, int] = {self.node_id: 1}
        while stack:
            node, level, it = stack[-1]
            child = next(it, None)
            if child is None:
                stack.pop()
                node._post = post
                post += 1
                node._size = sizes[node.node_id]
                if stack:
                    parent = stack[-1][0]
                    sizes[parent.node_id] += node._size
                continue
            child._pre = pre
            child._level = level + 1
            pre += 1
            sizes[child.node_id] = 1
            stack.append((child, level + 1, child.children()))
        self._index_valid = True

    def nodes_in_document_order(self) -> Iterator[Node]:
        """All nodes of the tree in document order (document node first)."""
        yield from self.descendant_or_self()

    def __repr__(self) -> str:
        return f"<Document uri={self.uri!r}>"


class Element(_ParentNode):
    """An element node: a tag, ordered attributes, and ordered children."""

    kind = NodeKind.ELEMENT
    __slots__ = ("tag", "_attributes")

    def __init__(self, tag: str):
        super().__init__()
        if not tag:
            raise ValueError("element tag must be non-empty")
        self.tag = tag
        self._attributes: dict[str, Attribute] = {}

    @property
    def name(self) -> str:
        return self.tag

    # -- attributes ---------------------------------------------------------

    def set_attribute(self, name: str, value: str) -> "Attribute":
        """Set (or replace) the attribute ``name`` and return its node."""
        attr = Attribute(name, value)
        attr.parent = self
        self._attributes[name] = attr
        self._invalidate()
        return attr

    def adopt_attribute(self, name: str, value: str) -> "Attribute":
        """Bulk-construction fast path for :meth:`set_attribute`: no
        index invalidation (see :meth:`_ParentNode.adopt`)."""
        attr = Attribute(name, value)
        attr.parent = self
        self._attributes[name] = attr
        return attr

    def get_attribute(self, name: str) -> Optional[str]:
        """The value of attribute ``name``, or ``None``."""
        attr = self._attributes.get(name)
        return attr.value if attr is not None else None

    def attributes(self) -> Iterator["Attribute"]:
        """The attribute axis, in insertion order."""
        return iter(self._attributes.values())

    # -- convenience --------------------------------------------------------

    def append_text(self, value: str) -> "Text":
        """Append a text child (merging with a trailing text node)."""
        if self._children and isinstance(self._children[-1], Text):
            last = self._children[-1]
            last.value += value
            self._invalidate()
            return last
        return self.append(Text(value))  # type: ignore[return-value]

    def child_elements(self, tag: Optional[str] = None) -> Iterator["Element"]:
        """Child elements, optionally restricted to ``tag``."""
        for child in self._children:
            if isinstance(child, Element) and (tag is None or child.tag == tag):
                yield child

    def find(self, tag: str) -> Optional["Element"]:
        """The first child element with ``tag``, or ``None``."""
        return next(self.child_elements(tag), None)

    def text(self) -> str:
        """Shortcut for :meth:`string_value`."""
        return self.string_value()

    def __repr__(self) -> str:
        return f"<Element {self.tag!r} children={len(self._children)}>"


class Attribute(Node):
    """An attribute node.  Attributes are not children of their element;
    they are reached through the attribute axis only."""

    kind = NodeKind.ATTRIBUTE
    __slots__ = ("attr_name", "value")

    def __init__(self, name: str, value: str):
        super().__init__()
        if not name:
            raise ValueError("attribute name must be non-empty")
        self.attr_name = name
        self.value = value

    @property
    def name(self) -> str:
        return self.attr_name

    def string_value(self) -> str:
        return self.value

    def __repr__(self) -> str:
        return f"<Attribute {self.attr_name}={self.value!r}>"


class Text(Node):
    """A text node."""

    kind = NodeKind.TEXT
    __slots__ = ("value",)

    def __init__(self, value: str):
        super().__init__()
        self.value = value

    def string_value(self) -> str:
        return self.value

    def __repr__(self) -> str:
        preview = self.value if len(self.value) <= 24 else self.value[:21] + "..."
        return f"<Text {preview!r}>"


class Comment(Node):
    """A comment node."""

    kind = NodeKind.COMMENT
    __slots__ = ("value",)

    def __init__(self, value: str):
        super().__init__()
        self.value = value

    def string_value(self) -> str:
        return self.value

    def __repr__(self) -> str:
        return f"<Comment {self.value!r}>"


class ProcessingInstruction(Node):
    """A processing-instruction node (``<?target data?>``)."""

    kind = NodeKind.PROCESSING_INSTRUCTION
    __slots__ = ("target", "data")

    def __init__(self, target: str, data: str = ""):
        super().__init__()
        if not target:
            raise ValueError("processing instruction target must be non-empty")
        self.target = target
        self.data = data

    @property
    def name(self) -> str:
        return self.target

    def string_value(self) -> str:
        return self.data

    def __repr__(self) -> str:
        return f"<PI {self.target!r}>"


def subtree_nodes(root: Node) -> Iterable[Node]:
    """All nodes of the subtree rooted at ``root`` in document order.

    Unlike :meth:`Node.descendant_or_self` this is a plain function so it
    can be used on detached subtrees without a document.
    """
    yield from root.descendant_or_self()
