"""Tests for the tag index and document statistics."""

import pytest

from repro.xml.parser import parse
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
