"""Per-structure snapshot round-trip tests.

Every storage structure exports plain data through ``to_snapshot()`` and
rebuilds verbatim through ``from_snapshot()`` / ``restore()``.  These
tests push each one through the *real wire format*
(:func:`repro.durability.format.pack_obj` / :func:`unpack_obj`), so they
also pin the binary encoding's array fast paths (homogeneous int / str /
float lists) to exact round-trip semantics.

Covered per the durability spec: the BP bitvector, the tag index
(a restored index must stay equal to a fresh build under updates), the value
indexes **with live tombstones** and **after self-compaction**, document
statistics, and the empty-document / empty-database boundary cases.
"""

from __future__ import annotations

import random

import pytest

from repro.durability.format import pack_obj, unpack_obj
from repro.engine.database import Database
from repro.storage.bitvector import BitVector
from repro.storage.content import ContentStore
from repro.storage.stats import DocumentStatistics
from repro.storage.tagindex import TagIndex
from repro.storage.valueindex import ContentIndex
from repro.xml.parser import parse

DOC = """<bib>
  <book year="1994"><title>TCP/IP</title><price>65.95</price></book>
  <book year="2000"><title>Data on the Web</title><price>39.95</price></book>
  <book year="1999"><title>Economics</title><price>29.95</price></book>
  <misc note="x"><!-- c --><?pi data?><empty/></misc>
</bib>"""


def _wire(state):
    """Push a to_snapshot() payload through the binary format."""
    return unpack_obj(pack_obj(state))


def _loaded_database() -> Database:
    database = Database(debug_checks=True)
    database.load(DOC, uri="bib.xml")
    return database


# -- bitvector ----------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("length", [0, 1, 63, 64, 65, 1000])
def test_bitvector_roundtrip(seed, length):
    rng = random.Random(seed * 1000 + length)
    bits = [rng.randint(0, 1) for _ in range(length)]
    vector = BitVector.from_bits(bits)
    restored = BitVector.from_snapshot(_wire(vector.to_snapshot()))
    assert len(restored) == length
    assert list(restored) == bits
    assert restored.ones == vector.ones
    for index in range(length):
        assert restored.rank1(index) == vector.rank1(index)
    for k in range(vector.ones):
        assert restored.select1(k) == vector.select1(k)
    for k in range(vector.zeros):
        assert restored.select0(k) == vector.select0(k)


def test_bitvector_roundtrip_from_live_document():
    database = _loaded_database()
    bits = database.document().succinct.bp.bits
    restored = BitVector.from_snapshot(_wire(bits.to_snapshot()))
    assert list(restored) == list(bits)
    assert restored.ones == bits.ones


# -- tag index ----------------------------------------------------------------


def test_tag_index_roundtrip_stays_current_under_updates():
    """A restored index, maintained through inserts and deletes, equals
    a fresh build over the updated interval store — both the pre lists
    and the materialised posting records."""
    database = _loaded_database()
    document = database.document()
    interval = document.interval.clone()
    restored = TagIndex.restore(
        interval, _wire(document.tag_index.postings_snapshot()))
    assert restored.postings_snapshot() == \
        document.tag_index.postings_snapshot()
    restored.postings("book")  # memoised records must not go stale

    def insert(parent_pre: int, position: int, xml: str) -> None:
        subtree = parse(xml).root
        subtree.parent.remove(subtree)
        metrics = interval.insert_subtree(parent_pre, position, subtree)
        restored.apply_insert(metrics["inserted_at"],
                              metrics["inserted_nodes"])

    def delete(pre: int) -> None:
        restored.apply_delete(pre, interval.end[pre] - pre + 1)
        interval.delete_subtree(pre)

    bib = interval.by_tag("bib")[0].pre
    insert(bib, 0, "<book year='2024'><title>New</title></book>")
    delete(interval.by_tag("book")[2].pre)
    insert(interval.by_tag("misc")[0].pre, 1, "<empty><book/></empty>")
    delete(interval.by_tag("book")[0].pre)

    fresh = TagIndex(interval)
    assert restored.postings_snapshot() == fresh.postings_snapshot()
    assert sorted(restored.tags()) == sorted(fresh.tags())
    for tag in fresh.tags():
        assert restored.postings(tag) == fresh.postings(tag)
        assert restored.postings(tag) == interval.by_tag(tag)


# -- value indexes ------------------------------------------------------------


def test_value_index_roundtrip_with_live_tombstones():
    database = _loaded_database()
    database.delete("/bib/book[title = 'Economics']")
    document = database.document()
    for index in (document.value_index, document.numeric_index):
        assert document.succinct.content.dead_entries > 0
        store = ContentStore.from_snapshot(
            _wire(document.succinct.content.to_snapshot()))
        restored = ContentIndex.restore(store, _wire(index.to_snapshot()))
        assert restored.numeric == index.numeric
        assert restored.entries() == index.entries()
        assert restored.dead_entries == index.dead_entries
        assert restored._live_entries == index._live_entries
        assert restored.compactions == index.compactions
    assert database.query("//book[price = '65.95']/title").values() \
        == ["TCP/IP"]


def test_value_index_roundtrip_after_compaction():
    store = ContentStore()
    for owner in range(200):
        store.append(str(owner), owner)
    index = ContentIndex(store, numeric=True)
    # Tombstone enough entries to cross the self-compaction threshold
    # (dead > 64 and dead > live).
    for content_id in range(150):
        store.mark_dead(content_id)
    index.note_dead(150)
    assert index.compactions >= 1
    restored = ContentIndex.restore(
        ContentStore.from_snapshot(_wire(store.to_snapshot())),
        _wire(index.to_snapshot()))
    assert restored.entries() == index.entries()
    assert restored.compactions == index.compactions
    assert restored.dead_entries == index.dead_entries
    for owner in range(150, 200):
        assert restored.search(float(owner)) == [owner]


# -- statistics ---------------------------------------------------------------


def test_statistics_roundtrip():
    database = _loaded_database()
    database.insert("/bib", "<book year='2024'><title>New</title></book>")
    stats = database.document().statistics
    restored = DocumentStatistics.from_snapshot(_wire(stats.to_snapshot()))
    assert restored.node_count == stats.node_count
    assert restored.tag_counts == stats.tag_counts
    assert restored.edge_counts == stats.edge_counts
    assert restored.descendant_counts == stats.descendant_counts
    assert restored.depth_histogram == stats.depth_histogram
    assert restored.distinct_values == stats.distinct_values
    assert restored.max_depth == stats.max_depth
    assert restored.fragmented_value_tags == stats.fragmented_value_tags
    assert restored.generation == stats.generation
    # Tuple keys must come back as tuples, not lists.
    for key in restored.edge_counts:
        assert isinstance(key, tuple) and len(key) == 2


def test_statistics_roundtrip_empty_counters():
    database = Database()
    database.load("<r/>", uri="tiny.xml")
    stats = database.document().statistics
    restored = DocumentStatistics.from_snapshot(_wire(stats.to_snapshot()))
    assert restored.tag_counts == stats.tag_counts
    assert restored.distinct_values == stats.distinct_values
    assert restored.edge_counts == stats.edge_counts


# -- whole-database boundary cases --------------------------------------------


def test_empty_document_checkpoint_roundtrip(tmp_path):
    database = Database.open(tmp_path, checkpoint_every=0)
    database.load("<r/>", uri="tiny.xml")
    before = database.query("/r").values()
    database.close()
    recovered = Database.open(tmp_path, checkpoint_every=0,
                              debug_checks=True)
    assert list(recovered.documents) == ["tiny.xml"]
    assert recovered.query("/r").values() == before
    recovered.close()


def test_empty_database_checkpoint_roundtrip(tmp_path):
    database = Database.open(tmp_path, checkpoint_every=0)
    database.checkpoint()
    database.close()
    recovered = Database.open(tmp_path, checkpoint_every=0)
    assert recovered.documents == {}
    report = recovered.durability_report()["last_recovery"]
    assert report["snapshot_generation"] is not None
    assert report["wal_records_replayed"] == 0
    recovered.close()
