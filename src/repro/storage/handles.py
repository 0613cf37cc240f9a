"""Node handles: a stored node as ``(version, pre)`` over label columns.

A query result is not a model tree node but a light handle naming one
pre-order id of one document version.  Every read the evaluators make
— kind, name, value, parent, children, attributes, string value,
document order — is one or two reads of the version's
:class:`~repro.storage.interval.IntervalDocument` columns (``kinds``,
``tags``, ``values``, ``parent``, ``end``, ``level``); nothing is built
per node beyond the handle itself, and nothing points back from the
columns to a handle, so a retired version is freed by reference
counting alone.

Each handle class subclasses its :mod:`repro.xml.model` kind
(:class:`ColumnElement` is a :class:`~repro.xml.model.Element`, and so
on), so the serializer, the XPath/XQuery evaluators, γ's ``clone_node``
and the algebra operators take handles unchanged.  Unlike model nodes:

* two handles are equal (and hash alike) when they name the same
  ``pre`` of the same version — handles are built afresh on every
  navigation, so compare nodes with ``==``, never ``is``;
* ``pre`` is the *storage* pre-order id (attributes counted, right after
  their element), which orders handles in document order directly;
* ``node_id`` is negative (model node ids count up from zero), so
  handles and constructed model nodes never collide in a dedup set;
* handles are read-only: the mutators raise :class:`TypeError`.

``version`` is anything with an ``interval`` (the columns) and a
``version_id`` — in the engine, a
:class:`~repro.engine.database.DocumentVersion`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.xml import model
from repro.storage.succinct import (
    KIND_ATTRIBUTE,
    KIND_COMMENT,
    KIND_DOCUMENT,
    KIND_ELEMENT,
    KIND_PI,
    KIND_TEXT,
)

__all__ = ["ColumnNode", "ColumnDocument", "ColumnElement",
           "ColumnAttribute", "ColumnText", "ColumnComment",
           "ColumnProcessingInstruction", "node_handle", "node_handles"]


def _read_only(self, *args, **kwargs):
    raise TypeError(f"{type(self).__name__} is a read-only view of a "
                    f"stored document version; parse its serialization "
                    f"to edit")


class ColumnNode:
    """The read side of :class:`~repro.xml.model.Node` over the label
    columns.  A mixin: the concrete classes below put it before their
    model kind and add the ``_version`` slot; the pre id lives in the
    model's own ``_pre`` slot."""

    __slots__ = ()

    # -- identity -----------------------------------------------------------

    @property
    def version(self):
        """The document version this handle reads."""
        return self._version

    @property
    def node_id(self) -> int:
        return -1 - (self._version.version_id << 32 | self._pre)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ColumnNode) and self._pre == other._pre
                and self._version is other._version)

    def __hash__(self) -> int:
        return hash((id(self._version), self._pre))

    # -- labels -------------------------------------------------------------

    @property
    def pre(self) -> int:
        return self._pre

    @property
    def post(self) -> int:
        interval = self._version.interval
        return interval.end[self._pre] - interval.level[self._pre]

    @property
    def level(self) -> int:
        return self._version.interval.level[self._pre]

    @property
    def size(self) -> int:
        return self._version.interval.end[self._pre] - self._pre + 1

    @property
    def parent(self) -> Optional[model.Node]:
        parent = self._version.interval.parent[self._pre]
        return None if parent < 0 else node_handle(self._version, parent)

    @property
    def document(self) -> "ColumnDocument":
        return node_handle(self._version, 0)

    def is_ancestor_of(self, other: model.Node) -> bool:
        return (isinstance(other, ColumnNode)
                and other._version is self._version
                and self._pre < other._pre
                <= self._version.interval.end[self._pre])

    # -- axes ---------------------------------------------------------------

    def children(self) -> Iterator[model.Node]:
        version, pre = self._version, self._pre
        kinds, end = version.interval.kinds, version.interval.end
        child, stop = pre + 1, end[pre]
        while child <= stop:
            if kinds[child] != KIND_ATTRIBUTE:
                yield node_handle(version, child)
            child = end[child] + 1

    def descendants(self) -> Iterator[model.Node]:
        version, pre = self._version, self._pre
        kinds = version.interval.kinds
        for index in range(pre + 1, version.interval.end[pre] + 1):
            if kinds[index] != KIND_ATTRIBUTE:
                yield node_handle(version, index)

    # -- content ------------------------------------------------------------

    def string_value(self) -> str:
        return self._version.interval.string_value(self._pre)

    @property
    def _value(self) -> str:
        return self._version.interval.values[self._pre] or ""

    # -- the mutators ---------------------------------------------------------

    append = adopt = insert = remove = _read_only
    set_attribute = adopt_attribute = append_text = reindex = _read_only

    def __repr__(self) -> str:
        interval = self._version.interval
        return (f"<{type(self).__name__} {interval.tags[self._pre]!r} "
                f"pre={self._pre} version={self._version.version_id}>")


class _ColumnParent(ColumnNode):
    """Handles of the kinds with children (document, element)."""

    __slots__ = ()

    def __len__(self) -> int:
        return sum(1 for _ in self.children())

    def __getitem__(self, index: int) -> model.Node:
        return list(self.children())[index]


class ColumnDocument(_ColumnParent, model.Document):
    __slots__ = ("_version",)

    @property
    def uri(self) -> str:
        return self._version.interval.uri

    @property
    def root(self) -> "ColumnElement":
        for child in self.children():
            if isinstance(child, model.Element):
                return child
        raise ValueError("document has no document element")


class ColumnElement(_ColumnParent, model.Element):
    __slots__ = ("_version",)

    @property
    def tag(self) -> str:
        return self._version.interval.tags[self._pre]

    def _attribute_pres(self) -> Iterator[int]:
        kinds = self._version.interval.kinds
        pre = self._pre + 1
        while pre < len(kinds) and kinds[pre] == KIND_ATTRIBUTE:
            yield pre
            pre += 1

    def attributes(self) -> Iterator["ColumnAttribute"]:
        for pre in self._attribute_pres():
            yield node_handle(self._version, pre)

    def get_attribute(self, name: str) -> Optional[str]:
        interval, tag = self._version.interval, "@" + name
        for pre in self._attribute_pres():
            if interval.tags[pre] == tag:
                return interval.values[pre] or ""
        return None

    def child_elements(self, tag: Optional[str] = None
                       ) -> Iterator["ColumnElement"]:
        for child in self.children():
            if isinstance(child, model.Element) \
                    and (tag is None or child.tag == tag):
                yield child


class ColumnAttribute(ColumnNode, model.Attribute):
    __slots__ = ("_version",)

    @property
    def attr_name(self) -> str:
        return self._version.interval.tags[self._pre][1:]

    value = ColumnNode._value


class ColumnText(ColumnNode, model.Text):
    __slots__ = ("_version",)

    value = ColumnNode._value


class ColumnComment(ColumnNode, model.Comment):
    __slots__ = ("_version",)

    value = ColumnNode._value


class ColumnProcessingInstruction(ColumnNode, model.ProcessingInstruction):
    __slots__ = ("_version",)

    @property
    def target(self) -> str:
        return self._version.interval.tags[self._pre][1:]

    data = ColumnNode._value


_CLASSES = {
    KIND_DOCUMENT: ColumnDocument,
    KIND_ELEMENT: ColumnElement,
    KIND_ATTRIBUTE: ColumnAttribute,
    KIND_TEXT: ColumnText,
    KIND_COMMENT: ColumnComment,
    KIND_PI: ColumnProcessingInstruction,
}
_new = object.__new__


def node_handle(version, pre: int) -> ColumnNode:
    """The handle of pre-order id ``pre`` in ``version``."""
    node = _new(_CLASSES[version.interval.kinds[pre]])
    node._version = version
    node._pre = pre
    return node


def node_handles(version, pres: Iterable[int]) -> list[ColumnNode]:
    """Handles of the given pre ids, in the given order."""
    kinds, classes = version.interval.kinds, _CLASSES
    nodes = []
    append = nodes.append
    for pre in pres:
        node = _new(classes[kinds[pre]])
        node._version = version
        node._pre = pre
        append(node)
    return nodes
