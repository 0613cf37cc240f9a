"""Tests for the succinct document: construction, navigation, scan,
content separation, updates, and size accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.xml import model
from repro.xml.parser import parse
from repro.storage.succinct import (
    KIND_ATTRIBUTE,
    KIND_COMMENT,
    KIND_DOCUMENT,
    KIND_ELEMENT,
    KIND_PI,
    KIND_TEXT,
    SuccinctDocument,
)

SAMPLE = (
    '<bib><book year="1994"><title>TCP/IP</title>'
    "<author>Stevens</author></book>"
    '<book year="2000"><title>Data on the Web</title></book>'
    "<!--end--><?render fast?></bib>"
)


@pytest.fixture
def store():
    return SuccinctDocument.from_document(parse(SAMPLE))


class TestConstruction:
    def test_node_count(self, store):
        # document + bib + 2 book + 2 @year + 2 title + 1 author
        # + 3 texts + comment + pi = 14
        assert store.node_count == 14

    def test_document_node(self, store):
        assert store.tag(0) == "#document"
        assert store.kind(0) == KIND_DOCUMENT

    def test_tags_in_preorder(self, store):
        tags = [store.tag(i) for i in range(store.node_count)]
        assert tags == [
            "#document", "bib", "book", "@year", "title", "#text",
            "author", "#text", "book", "@year", "title", "#text",
            "#comment", "?render",
        ]

    def test_kinds(self, store):
        assert store.kind(2) == KIND_ELEMENT
        assert store.kind(3) == KIND_ATTRIBUTE
        assert store.kind(5) == KIND_TEXT
        assert store.kind(12) == KIND_COMMENT
        assert store.kind(13) == KIND_PI

    def test_bad_id_rejected(self, store):
        with pytest.raises(StorageError):
            store.tag(99)
        with pytest.raises(StorageError):
            store.tag(-1)

    def test_from_events_equals_from_document(self):
        from repro.xml.parser import iterparse
        direct = SuccinctDocument.from_events(iterparse(SAMPLE))
        via_tree = SuccinctDocument.from_document(parse(SAMPLE))
        assert ([direct.tag(i) for i in range(direct.node_count)]
                == [via_tree.tag(i) for i in range(via_tree.node_count)])


class TestNavigation:
    def test_parent(self, store):
        assert store.parent(0) is None
        assert store.parent(1) == 0
        assert store.parent(2) == 1
        assert store.parent(5) == 4

    def test_children_attributes_first(self, store):
        assert list(store.children(2)) == [3, 4, 6]

    def test_attributes(self, store):
        assert [store.tag(a) for a in store.attributes(2)] == ["@year"]
        assert list(store.attributes(4)) == []

    def test_first_child_next_sibling(self, store):
        assert store.first_child(1) == 2
        assert store.next_sibling(2) == 8
        assert store.next_sibling(13) is None
        assert store.first_child(5) is None

    def test_depth(self, store):
        assert store.depth(0) == 0
        assert store.depth(2) == 2
        assert store.depth(5) == 4

    def test_subtree_size(self, store):
        assert store.subtree_size(0) == 14
        assert store.subtree_size(2) == 6
        assert store.subtree_size(5) == 1

    def test_is_ancestor(self, store):
        assert store.is_ancestor(1, 5)
        assert store.is_ancestor(2, 3)
        assert not store.is_ancestor(2, 8)
        assert not store.is_ancestor(5, 5)


class TestContentSeparation:
    def test_text_of(self, store):
        assert store.text_of(5) == "TCP/IP"
        assert store.text_of(3) == "1994"
        assert store.text_of(12) == "end"
        assert store.text_of(13) == "fast"
        assert store.text_of(2) is None

    def test_string_value(self, store):
        assert store.string_value(2) == "TCP/IPStevens"
        assert store.string_value(3) == "1994"
        assert store.string_value(0) == "TCP/IPStevensData on the Web"

    def test_content_store_owners(self, store):
        owners = {owner for _, _, owner in store.content}
        assert owners == {3, 5, 7, 9, 11, 12, 13}

    def test_structure_and_content_sizes_reported_separately(self, store):
        sizes = store.size_bytes()
        assert sizes["structure"] > 0
        assert sizes["content"] > 0
        assert sizes["total"] == sum(v for k, v in sizes.items()
                                     if k != "total")


class TestScan:
    def test_full_scan_events(self, store):
        events = list(store.scan())
        starts = [node for kind, node in events if kind == "start"]
        ends = [node for kind, node in events if kind == "end"]
        assert starts == list(range(14))
        assert sorted(ends) == list(range(14))
        assert len(events) == 28

    def test_scan_is_properly_nested(self, store):
        stack = []
        for kind, node in store.scan():
            if kind == "start":
                stack.append(node)
            else:
                assert stack.pop() == node
        assert stack == []

    def test_subtree_scan(self, store):
        events = list(store.scan(root=2))
        starts = [node for kind, node in events if kind == "start"]
        assert starts == [2, 3, 4, 5, 6, 7]

    def test_element_ids(self, store):
        assert list(store.element_ids("book")) == [2, 8]
        assert list(store.element_ids("missing")) == []
        assert list(store.element_ids()) == [1, 2, 4, 6, 8, 10]

    def test_tag_postings(self, store):
        postings = store.tag_postings()
        assert postings["book"] == [2, 8]
        assert postings["title"] == [4, 10]
        assert postings["#text"] == [5, 7, 11]


class TestUpdates:
    def test_insert_subtree_in_middle(self, store):
        from repro.xml.model import Element
        new_book = Element("book")
        new_book.set_attribute("year", "2024")
        title = new_book.append(Element("title"))
        title.append_text("Succinct Trees")
        metrics = store.insert_subtree(parent=1, position=1,
                                       subtree=new_book)
        assert metrics["inserted_nodes"] == 4
        assert store.node_count == 18
        # The new book sits between the two old ones.
        books = list(store.element_ids("book"))
        assert len(books) == 3
        assert store.string_value(books[1]) == "Succinct Trees"
        # Old content still reachable after renumbering.
        assert store.string_value(books[0]) == "TCP/IPStevens"
        assert store.string_value(books[2]) == "Data on the Web"

    def test_insert_at_end(self, store):
        from repro.xml.model import Element
        note = Element("note")
        note.append_text("x")
        store.insert_subtree(parent=1, position=4, subtree=note)
        children = [store.tag(c) for c in store.children(1)]
        assert children[-1] == "note"

    def test_insert_shift_count_is_local(self, store):
        from repro.xml.model import Element
        metrics = store.insert_subtree(parent=8, position=1,
                                       subtree=Element("x"))
        # Only the nodes after the second book's title shift.
        assert metrics["shifted_entries"] == 2

    def test_insert_under_leaf_rejected(self, store):
        from repro.xml.model import Element
        with pytest.raises(StorageError):
            store.insert_subtree(parent=5, position=0,
                                 subtree=Element("x"))

    def test_insert_bad_position_rejected(self, store):
        from repro.xml.model import Element
        with pytest.raises(StorageError):
            store.insert_subtree(parent=1, position=7,
                                 subtree=Element("x"))


class TestInfo:
    def test_info_record(self, store):
        info = store.info(2)
        assert info.tag == "book"
        assert info.depth == 2
        assert info.subtree_size == 6

    def test_symbol_of(self, store):
        assert store.symbol_of("book") == store.tag_id(2)
        assert store.symbol_of("nope") is None


class TestDeleteSubtree:
    def test_delete_middle_subtree(self, store):
        metrics = store.delete_subtree(2)  # first book
        assert metrics["removed_nodes"] == 6
        assert store.node_count == 8
        tags = [store.tag(i) for i in range(store.node_count)]
        assert tags == ["#document", "bib", "book", "@year", "title",
                        "#text", "#comment", "?render"]
        # Surviving content still resolves after renumbering.
        assert store.string_value(2) == "Data on the Web"
        assert store.text_of(3) == "2000"

    def test_delete_leaf(self, store):
        before = store.node_count
        store.delete_subtree(5)  # the first title's text
        assert store.node_count == before - 1
        assert store.string_value(4) == ""

    def test_delete_then_scan_consistent(self, store):
        store.delete_subtree(8)  # second book
        stack = []
        for kind, node in store.scan():
            if kind == "start":
                stack.append(node)
            else:
                assert stack.pop() == node
        assert stack == []

    def test_cannot_delete_document(self, store):
        with pytest.raises(StorageError):
            store.delete_subtree(0)

    def test_delete_tail_is_local(self, store):
        metrics = store.delete_subtree(13)  # the trailing PI
        assert metrics["shifted_entries"] == 0


# -- spliced store == store built from scratch -------------------------------


def succinct_order(document: model.Document) -> list[model.Node]:
    """Model nodes in the store's pre-order: each element, then its
    attributes, then its children."""
    order: list[model.Node] = [document]

    def walk(node):
        order.append(node)
        if isinstance(node, model.Element):
            order.extend(node.attributes())
            for child in node.children():
                walk(child)

    for child in document.children():
        walk(child)
    return order


@st.composite
def small_subtrees(draw, depth=0):
    """An element with an optional attribute, at most one text child
    (so no two texts ever become adjacent siblings) and optional
    element children."""
    element = model.Element(draw(st.sampled_from(
        ["book", "title", "x", "note"])))
    if draw(st.booleans()):
        element.set_attribute("k", draw(st.text(min_size=1, max_size=4)))
    if draw(st.booleans()):
        element.append_text(draw(st.text(min_size=1, max_size=6)))
    if depth < 2:
        for _ in range(draw(st.integers(0, 2))):
            element.append(draw(small_subtrees(depth + 1)))
    return element


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 10**6),
                          st.integers(0, 10**6), small_subtrees()),
                max_size=10))
@settings(max_examples=80, deadline=None)
def test_splices_match_fresh_build(operations):
    document = parse(SAMPLE)
    store = SuccinctDocument.from_document(document)
    for is_insert, pick, slot, subtree in operations:
        order = succinct_order(document)
        if is_insert:
            parents = [pre for pre, node in enumerate(order)
                       if isinstance(node, (model.Element, model.Document))]
            parent_pre = parents[pick % len(parents)]
            parent = order[parent_pre]
            position = slot % (len(parent) + 1)
            store.insert_subtree(parent_pre, position, subtree)
            parent.insert(position, subtree)
        else:
            victims = [pre for pre, node in enumerate(order)
                       if pre and not isinstance(node, model.Attribute)]
            if not victims:
                continue
            victim = victims[pick % len(victims)]
            store.delete_subtree(victim)
            order[victim].parent.remove(order[victim])
        fresh = SuccinctDocument.from_document(document)
        mine, theirs = store.to_snapshot(), fresh.to_snapshot()
        assert mine["bp"] == theirs["bp"]
        assert ([mine["symbols"][s] for s in mine["tags"]]
                == [theirs["symbols"][s] for s in theirs["tags"]])
        assert mine["kinds"] == theirs["kinds"]
        assert ([store.text_of(pre) for pre in range(store.node_count)]
                == [fresh.text_of(pre) for pre in range(fresh.node_count)])
        # One size formula: it charges the spliced vector's real size.
        assert store.size_bytes()["structure"] == store.bp.size_bytes()
