"""Tests for the node table, tag index, and document statistics."""

import pytest

from repro.xml.parser import parse
from repro.baselines.relational import NodeTable
from repro.storage.interval import IntervalDocument
from repro.storage.pages import PageManager
from repro.storage.stats import DocumentStatistics
from repro.storage.tagindex import TagIndex

SAMPLE = (
    "<bib>"
    '<book year="1994"><title>TCP/IP</title><author>Stevens</author></book>'
    '<book year="2000"><title>Data on the Web</title>'
    "<author>Abiteboul</author><author>Buneman</author></book>"
    "</bib>"
)


@pytest.fixture
def doc():
    return IntervalDocument.from_document(parse(SAMPLE))


class TestTagIndex:
    def test_postings_in_document_order(self, doc):
        index = TagIndex(doc)
        authors = index.postings("author")
        assert [a.tag for a in authors] == ["author"] * 3
        assert [a.pre for a in authors] == sorted(a.pre for a in authors)

    def test_cardinality(self, doc):
        index = TagIndex(doc)
        assert index.cardinality("book") == 2
        assert index.cardinality("author") == 3
        assert index.cardinality("ghost") == 0

    def test_missing_tag_empty(self, doc):
        assert TagIndex(doc).postings("ghost") == []

    def test_io_charged_per_posting_scan(self, doc):
        pages = PageManager(page_size=64)
        index = TagIndex(doc, pages=pages)
        pages.reset()
        index.postings("author")
        assert pages.counters.page_reads >= 1
        reads = pages.counters.page_reads
        index.postings("author", charge=False)
        assert pages.counters.page_reads == reads

    def test_size_bytes(self, doc):
        index = TagIndex(doc)
        assert index.size_bytes() >= 12 * len(doc.nodes)


class TestNodeTable:
    def test_scan_all_rows(self, doc):
        table = NodeTable(doc)
        assert len(list(table.scan())) == len(doc.nodes)

    def test_scan_with_predicate(self, doc):
        table = NodeTable(doc)
        books = list(table.scan(lambda row: row.tag == "book"))
        assert len(books) == 2

    def test_index_lookup_tag(self, doc):
        table = NodeTable(doc)
        assert [r.tag for r in table.index_lookup_tag("title")] == \
            ["title", "title"]

    def test_index_lookup_value(self, doc):
        table = NodeTable(doc)
        rows = table.index_lookup_value("Stevens")
        assert len(rows) == 1
        assert rows[0].tag == "#text"

    def test_index_lookup_value_without_index(self, doc):
        table = NodeTable(doc, build_value_index=False)
        rows = table.index_lookup_value("Stevens")
        assert len(rows) == 1

    def test_value_index_attribute_values(self, doc):
        table = NodeTable(doc)
        rows = table.index_lookup_value("1994")
        assert [r.tag for r in rows] == ["@year"]

    def test_containment_join_matches_naive(self, doc):
        table = NodeTable(doc)
        books = table.index_lookup_tag("book")
        authors = table.index_lookup_tag("author")
        joined = table.containment_join(books, authors)
        naive = [(a, d) for a in books for d in authors if a.contains(d)]
        assert sorted((a.pre, d.pre) for a, d in joined) == \
            sorted((a.pre, d.pre) for a, d in naive)

    def test_containment_join_parent_child(self, doc):
        table = NodeTable(doc)
        bib = table.index_lookup_tag("bib")
        titles = table.index_lookup_tag("title")
        assert table.containment_join(bib, titles, parent_child=True) == []
        books = table.index_lookup_tag("book")
        assert len(table.containment_join(books, titles,
                                          parent_child=True)) == 2

    def test_scan_charges_sequential_io(self, doc):
        pages = PageManager(page_size=64)
        table = NodeTable(doc, pages=pages)
        pages.reset()
        list(table.scan())
        assert pages.counters.page_reads >= 1

    def test_row_point_access(self, doc):
        table = NodeTable(doc)
        assert table.row(0).tag == "#document"


class TestStatistics:
    def test_tag_counts(self, doc):
        stats = DocumentStatistics(doc)
        assert stats.count("book") == 2
        assert stats.count("author") == 3
        assert stats.count("nothing") == 0

    def test_edge_counts(self, doc):
        stats = DocumentStatistics(doc)
        assert stats.child_count("bib", "book") == 2
        assert stats.child_count("book", "author") == 3
        assert stats.child_count("bib", "author") == 0

    def test_descendant_counts(self, doc):
        stats = DocumentStatistics(doc)
        assert stats.descendant_count("bib", "author") == 3
        assert stats.descendant_count("book", "#text") == 5

    def test_selectivities(self, doc):
        stats = DocumentStatistics(doc)
        assert stats.child_selectivity("bib", "book") == 1.0
        assert stats.child_selectivity("book", "title") == 1.0
        assert stats.child_selectivity("ghost", "x") == 0.0
        assert 0 < stats.value_selectivity("@year") <= 1.0
        assert stats.value_selectivity("ghost") == 0.0

    def test_depths(self, doc):
        stats = DocumentStatistics(doc)
        assert stats.max_depth == 4  # document/bib/book/title/#text
        assert stats.depth_histogram[0] == 1

    def test_summary(self, doc):
        summary = DocumentStatistics(doc).summary()
        assert summary["nodes"] == len(doc.nodes)
        assert summary["distinct_tags"] > 3
        assert summary["average_fanout"] > 0
