"""Tests for the interval-encoded (extended-relational) document."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SnapshotCorruptError, StorageError
from repro.xml.model import Element
from repro.xml.parser import parse
from repro.storage.interval import IntervalDocument
from repro.storage.succinct import KIND_ELEMENT, SuccinctDocument

SAMPLE = (
    '<bib><book year="1994"><title>TCP/IP</title>'
    "<author>Stevens</author></book>"
    '<book year="2000"><title>Data on the Web</title></book></bib>'
)


@pytest.fixture
def doc():
    return IntervalDocument.from_document(parse(SAMPLE))


class TestLabels:
    def test_pre_ids_are_positions(self, doc):
        assert all(record.pre == index
                   for index, record in enumerate(doc.nodes))

    def test_labels_match_tree_model(self, doc):
        tree = parse(SAMPLE)
        tree.reindex()
        # Element records only (the tree model does not label attributes).
        tree_elements = {node.pre: node for node in
                         tree.nodes_in_document_order()
                         if node.kind.value == "element"}
        # Tree pre ids differ (no attribute nodes) but levels must align
        # per tag occurrence order.
        interval_tags = [r.tag for r in doc.nodes if r.kind == KIND_ELEMENT]
        tree_tags = [node.tag for node in tree.nodes_in_document_order()
                     if node.kind.value == "element"]
        assert interval_tags == tree_tags

    def test_end_is_last_descendant(self, doc):
        root = doc.node(0)
        assert root.end == len(doc.nodes) - 1
        first_book = doc.by_tag("book")[0]
        assert first_book.end == first_book.pre + 5

    def test_post_orders_children_before_parents(self, doc):
        for record in doc.nodes:
            if record.parent >= 0:
                assert record.post < doc.node(record.parent).post

    def test_levels(self, doc):
        assert doc.node(0).level == 0
        assert doc.by_tag("bib")[0].level == 1
        assert doc.by_tag("book")[0].level == 2
        assert doc.by_tag("title")[0].level == 3

    def test_same_numbering_as_succinct(self):
        interval = IntervalDocument.from_document(parse(SAMPLE))
        succinct = SuccinctDocument.from_document(parse(SAMPLE))
        assert len(interval.nodes) == succinct.node_count
        for record in interval.nodes:
            assert record.tag == succinct.tag(record.pre)
            assert record.level == succinct.depth(record.pre)
            assert (record.end - record.pre + 1
                    == succinct.subtree_size(record.pre))


class TestPredicates:
    def test_contains(self, doc):
        bib = doc.by_tag("bib")[0]
        title = doc.by_tag("title")[0]
        assert bib.contains(title)
        assert not title.contains(bib)
        assert not title.contains(title)

    def test_is_parent_of(self, doc):
        book = doc.by_tag("book")[0]
        title = doc.by_tag("title")[0]
        bib = doc.by_tag("bib")[0]
        assert book.is_parent_of(title)
        assert not bib.is_parent_of(title)

    def test_children_of(self, doc):
        book = doc.by_tag("book")[0]
        tags = [child.tag for child in doc.children_of(book.pre)]
        assert tags == ["@year", "title", "author"]

    def test_string_value(self, doc):
        book = doc.by_tag("book")[0]
        assert doc.string_value(book.pre) == "TCP/IPStevens"
        title = doc.by_tag("title")[0]
        assert doc.string_value(title.pre) == "TCP/IP"
        attr = doc.by_tag("@year")[0]
        assert doc.string_value(attr.pre) == "1994"

    def test_node_bad_id(self, doc):
        with pytest.raises(StorageError):
            doc.node(len(doc.nodes))


class TestUpdates:
    def test_insert_relabels_following_nodes(self, doc):
        bib = doc.by_tag("bib")[0]
        before = len(doc.nodes)
        new = Element("book")
        t = new.append(Element("title"))
        t.append_text("New")
        metrics = doc.insert_subtree(parent=bib.pre, position=1, subtree=new)
        assert len(doc.nodes) == before + metrics["inserted_nodes"]
        assert metrics["inserted_nodes"] == 3
        # The 4 nodes of the second book shift and both ancestors
        # (bib, #document) extend: 6 relabelled records.
        assert metrics["relabelled"] == 6

    def test_labels_consistent_after_insert(self, doc):
        bib = doc.by_tag("bib")[0]
        new = Element("note")
        new.append_text("hello")
        doc.insert_subtree(parent=bib.pre, position=0, subtree=new)
        self._check_invariants(doc)
        assert [c.tag for c in doc.children_of(bib.pre)][0] == "note"
        note = doc.by_tag("note")[0]
        assert doc.string_value(note.pre) == "hello"

    def test_insert_at_end_consistent(self, doc):
        bib = doc.by_tag("bib")[0]
        doc.insert_subtree(parent=bib.pre, position=2,
                           subtree=Element("tail"))
        self._check_invariants(doc)
        assert [c.tag for c in doc.children_of(bib.pre)][-1] == "tail"

    @staticmethod
    def _check_invariants(doc):
        posts = sorted(record.post for record in doc.nodes)
        assert posts == list(range(len(doc.nodes)))
        for index, record in enumerate(doc.nodes):
            assert record.pre == index
            assert record.pre <= record.end < len(doc.nodes)
            if record.parent >= 0:
                parent = doc.node(record.parent)
                assert parent.contains(record)
                assert parent.level + 1 == record.level

    def test_insert_under_leaf_rejected(self, doc):
        text = doc.by_tag("#text")[0]
        with pytest.raises(StorageError):
            doc.insert_subtree(parent=text.pre, position=0,
                               subtree=Element("x"))

    def test_insert_bad_position_rejected(self, doc):
        with pytest.raises(StorageError):
            doc.insert_subtree(parent=0, position=9, subtree=Element("x"))


class TestSnapshot:
    def test_roundtrip(self, doc):
        succinct = SuccinctDocument.from_document(parse(SAMPLE))
        restored = IntervalDocument.from_snapshot(doc.to_snapshot(),
                                                  succinct)
        assert restored.nodes == doc.nodes
        assert restored.to_snapshot() == doc.to_snapshot()

    @pytest.mark.parametrize("column", ["post", "end", "level"])
    def test_tampered_labels_are_corrupt(self, doc, column):
        """``post`` is written redundantly (``end - level``): a state
        where the columns disagree is rejected as corrupt, which makes
        recovery fall back to an older snapshot generation."""
        succinct = SuccinctDocument.from_document(parse(SAMPLE))
        state = doc.to_snapshot()
        state[column][2] += 1
        with pytest.raises(SnapshotCorruptError):
            IntervalDocument.from_snapshot(state, succinct)

    def test_clone_is_independent(self, doc):
        twin = doc.clone()
        before = doc.nodes
        twin.insert_subtree(1, 0, Element("x"))
        twin.delete_subtree(twin.by_tag("book")[0].pre)
        assert doc.nodes == before
        assert IntervalDocument.from_document(parse(SAMPLE)).nodes == before


class TestAccounting:
    def test_size_breakdown(self, doc):
        sizes = doc.size_bytes()
        assert sizes["total"] == (sizes["records"] + sizes["values"]
                                  + sizes["tag_dictionary"])
        assert sizes["records"] >= 20 * len(doc.nodes)

    def test_interval_larger_than_succinct_structure(self):
        text = "<r>" + "<a><b>x</b></a>" * 200 + "</r>"
        interval = IntervalDocument.from_document(parse(text))
        succinct = SuccinctDocument.from_document(parse(text))
        interval_structure = interval.size_bytes()["records"]
        succinct_sizes = succinct.size_bytes()
        succinct_structure = (succinct_sizes["structure"]
                              + succinct_sizes["tags"]
                              + succinct_sizes["kinds"])
        assert succinct_structure * 3 < interval_structure


# -- property: labels agree with the tree on random documents ----------------

_tags = st.sampled_from(["a", "b", "c", "d"])


@st.composite
def random_xml(draw, depth=4):
    tag = draw(_tags)
    if depth == 0:
        return f"<{tag}/>"
    children = draw(st.lists(random_xml(depth=depth - 1), max_size=3))
    return f"<{tag}>{''.join(children)}</{tag}>"


@given(random_xml())
@settings(max_examples=40, deadline=None)
def test_interval_and_succinct_agree_on_random_docs(text):
    interval = IntervalDocument.from_document(parse(text))
    succinct = SuccinctDocument.from_document(parse(text))
    assert len(interval.nodes) == succinct.node_count
    for record in interval.nodes:
        assert record.tag == succinct.tag(record.pre)
        assert record.level == succinct.depth(record.pre)
        assert (record.end - record.pre + 1
                == succinct.subtree_size(record.pre))
        parent = succinct.parent(record.pre)
        assert record.parent == (-1 if parent is None else parent)


class TestDeleteSubtree:
    def test_delete_relabels_consistently(self, doc):
        first_book = doc.by_tag("book")[0]
        metrics = doc.delete_subtree(first_book.pre)
        assert metrics["removed_nodes"] == 6
        TestUpdates._check_invariants(doc)
        assert len(doc.by_tag("book")) == 1
        assert doc.string_value(doc.by_tag("book")[0].pre) == \
            "Data on the Web"

    def test_delete_then_insert_round_trip(self, doc):
        from repro.xml.model import Element
        book = doc.by_tag("book")[1]
        doc.delete_subtree(book.pre)
        bib = doc.by_tag("bib")[0]
        doc.insert_subtree(bib.pre, 1, Element("book"))
        TestUpdates._check_invariants(doc)
        assert len(doc.by_tag("book")) == 2

    def test_cannot_delete_document(self, doc):
        with pytest.raises(StorageError):
            doc.delete_subtree(0)
