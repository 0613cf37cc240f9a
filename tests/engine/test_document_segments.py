"""Simulated I/O segments belong to one document.

Every loaded document shares the database's page manager, so each
store's segments are named by the document's uri: loading or updating
one document must not resize another document's extents or change
what a scan over it is charged.
"""

from repro.engine.database import Database
from repro.workload import generate_xmark
from repro.xml.serializer import serialize

QUERY = "/site/regions/europe/item/name"


def _extents(database: Database, uri: str) -> dict[str, int]:
    return {segment.name: segment.length
            for segment in database.pages.segments() if uri in segment.name}


def _pages(database: Database, uri: str) -> int:
    io = database.query(QUERY, strategy="nok", uri=uri).io
    return io["page_reads"] + io["pool_hits"]


def test_second_document_leaves_first_documents_segments_alone():
    database = Database(page_size=1024, result_cache_size=0)
    database.load(serialize(generate_xmark(scale=20, seed=7)),
                  uri="big.xml")
    extents = _extents(database, "big.xml")
    pages = _pages(database, "big.xml")
    assert pages > 1

    database.load("<a><b/></a>", uri="small.xml")
    database.insert("/a", "<c/>", uri="small.xml")
    assert _pages(database, "big.xml") == pages
    assert _extents(database, "big.xml") == extents
    assert any(name.startswith("succinct:structure:") for name in extents)
    assert any(name.startswith("tagindex:") for name in extents)
