"""Independent oracles for differential tests.

A database's query results are handles on the label columns they are
checked against, so a differential test must evaluate the reference
semantics over its *own* parse of the source text and compare pre-order
ids or values.  :func:`storage_preorder_map` numbers an independently
parsed tree the way the shredder numbers storage: document, then per
element — the element, its attributes, then its content with *adjacent
text runs merged into one node*.  :class:`ShadowDocument` replays a
database's inserts and deletes on such a tree with plain model edits.
Both are written against the model and the reference interpreter alone
and share no code with the engine's storage or its tree builder.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.storage.handles import ColumnNode
from repro.xml import model
from repro.xml.parser import parse
from repro.xml.serializer import serialize
from repro.xpath.semantics import evaluate_xpath
from repro.xquery.interpreter import evaluate_xquery


def storage_preorder_map(document: model.Document) -> dict[int, int]:
    """``model node_id -> storage pre-order id``; adjacent text siblings
    map to the same (merged) storage node."""
    mapping: dict[int, int] = {}
    for preorder, nodes in enumerate(storage_groups(document)):
        for node in nodes:
            mapping[node.node_id] = preorder
    return mapping


def storage_groups(document: model.Document):
    """Model nodes grouped per storage node, in storage pre-order."""
    yield [document]
    for child in document.children():
        yield from _walk(child)


def _walk(node: model.Node):
    if isinstance(node, model.Element):
        yield [node]
        for attribute in node.attributes():
            yield [attribute]
        text_run: list[model.Node] = []
        for child in node.children():
            if isinstance(child, model.Text):
                text_run.append(child)
                continue
            if text_run:
                yield text_run
                text_run = []
            yield from _walk(child)
        if text_run:
            yield text_run
    else:
        yield [node]


def oracle_preorders(text: str, evaluate) -> list[int]:
    """Sorted storage pre ids of the nodes ``evaluate(tree)`` returns
    over a fresh parse of ``text`` (parsed as ``Database.load`` does)."""
    tree = parse(text)
    mapping = storage_preorder_map(tree)
    return sorted({mapping[node.node_id] for node in evaluate(tree)})


def engine_preorder(version, node) -> Optional[int]:
    """The storage pre id of a result node of ``version`` (a handle on
    it), or ``None`` for any other node."""
    if isinstance(node, ColumnNode) and node.version is version:
        return node.pre
    return None


def engine_preorders(database, query: str, strategy: str = "auto") -> list:
    """Storage pre ids of the nodes ``database.query`` returns for the
    default document, in result order."""
    version = database.document()
    result = database.query(query, strategy=strategy)
    preorders = [engine_preorder(version, node) for node in result.items]
    assert None not in preorders, "a result node is not a handle"
    return preorders


def item_keys(items,
              preorder_of: Callable[[model.Node], Optional[int]]) -> list:
    """Comparable keys of a result sequence, in sequence order: a node
    of the document (``preorder_of`` gives its storage pre id) by that
    id and its string value, any other (constructed) node by its
    serialization, an atomic value as itself."""
    keys = []
    for item in items:
        if isinstance(item, model.Node):
            preorder = preorder_of(item)
            if preorder is not None:
                keys.append(("node", preorder, item.string_value()))
            else:
                keys.append(("constructed", serialize(item)))
        else:
            keys.append(("atom", item))
    return keys


def engine_keys(database, result) -> list:
    """:func:`item_keys` of a ``QueryResult`` over the default document."""
    version = database.document()
    return item_keys(result.items,
                     lambda node: engine_preorder(version, node))


def string_values(items) -> list:
    """``QueryResult.values()`` of a reference result sequence."""
    return [item.string_value() if hasattr(item, "string_value") else item
            for item in items]


class ShadowDocument:
    """One database document modelled independently of the engine.

    The source text is parsed on its own (as ``Database.load`` parses
    it), queries run on the reference interpreter, and every insert or
    delete the database is given is applied to this tree with plain
    model edits, so a wrong value or parent link in the engine's spliced
    columns — or in the tree it builds from them — shows as a
    difference.
    """

    def __init__(self, text: str, uri: str = ""):
        self.uri = uri
        self.tree = parse(text, uri=uri)

    def query(self, query: str) -> list:
        return evaluate_xquery(query, documents={self.uri: self.tree},
                               context_node=self.tree)

    def values(self, query: str) -> list:
        return string_values(self.query(query))

    def preorders(self, query: str) -> list[int]:
        """Storage pre ids of the query's nodes, in result order.  Valid
        while no delete has left two text siblings adjacent."""
        mapping = storage_preorder_map(self.tree)
        return [mapping[node.node_id] for node in self.query(query)]

    def keys(self, query: str) -> list:
        """:func:`item_keys` of the query's result, with the same
        validity condition as :meth:`preorders`."""
        mapping = storage_preorder_map(self.tree)
        return item_keys(self.query(query),
                         lambda node: mapping.get(node.node_id))

    def insert(self, parent_path: str, fragment: str,
               position: Optional[int] = None) -> None:
        (parent,) = evaluate_xpath(parent_path, self.tree)
        wrapper = parse(f"<wrap>{fragment}</wrap>")
        (subtree,) = wrapper.root.children()
        wrapper.root.remove(subtree)
        if position is None:
            position = len(list(parent.children()))
        parent.insert(position, subtree)

    def delete(self, path: str) -> None:
        (victim,) = evaluate_xpath(path, self.tree)
        victim.parent.remove(victim)
