"""Batched WAL replay: one copy-on-write successor per document per
batch, published once.

Recovery hands each WAL file's records to
:meth:`Database._replay_records`.  These tests pin the batch contract:
a read-only open of a checkpoint plus an N-record tail publishes twice
(snapshot restore + one batch) and clones each document once, records
whose targets exist only in the unpublished successor resolve against
it, a ``load`` record publishes the pending successors before it runs,
and a failing batch publishes nothing at all.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.errors import RecoveryError
from repro.xml.serializer import serialize

URI = "doc.xml"
OTHER = "other.xml"
DOC = "<r><a>1</a><b>2</b></r>"
OTHER_DOC = "<s><c>3</c></s>"

# Later records target elements that only earlier records of the same
# tail created, so they must resolve against the unpublished successor.
TAIL = [
    ("insert", "/r", "<n0>x</n0>", None),
    ("insert", "//n0", "<m1>1</m1>", None),
    ("insert", "//m1", "<k2 a=\"v\">2</k2>", None),
    ("delete", "//a"),
    ("insert", "/r", "<n4>y</n4>", 0),
    ("delete", "//m1"),
    ("insert", "//n4", "<m6>6</m6>", None),
    ("insert", "//b", "<k7>7</k7>", None),
]
PROBES = ["//n0", "//m1", "//k2", "//a", "//n4", "//m6", "//k7", "//b",
          "//r/*"]


def apply(database: Database, op, uri: str = URI) -> None:
    if op[0] == "insert":
        database.insert(op[1], op[2], position=op[3], uri=uri)
    else:
        database.delete(op[1], uri=uri)


def observe(database: Database, uri: str = URI) -> dict:
    state = {"xml": serialize(database.document(uri).node_for(0)),
             "versions": database.version_vector()}
    for probe in PROBES:
        state[probe] = database.query(probe, uri=uri).values()
    return state


def never_crashed_twin(ops) -> Database:
    twin = Database()
    twin.load(DOC, uri=URI)
    for op in ops:
        apply(twin, op)
    return twin


def write_directory(directory, ops) -> None:
    database = Database.open(directory, checkpoint_every=0, fsync=False)
    database.load(DOC, uri=URI)          # checkpointed: the tail follows
    for op in ops:
        apply(database, op)
    database.close()


@pytest.mark.parametrize("debug_checks", [False, True])
def test_read_only_open_publishes_snapshot_plus_one_batch(
        tmp_path, monkeypatch, debug_checks):
    write_directory(tmp_path / "db", TAIL)
    clones = []
    original = Database._clone_version

    def counting_clone(self, base):
        clones.append(base.uri)
        return original(self, base)

    monkeypatch.setattr(Database, "_clone_version", counting_clone)
    recovered = Database.open(tmp_path / "db", read_only=True,
                              debug_checks=debug_checks)
    try:
        assert recovered.durability.last_recovery[
            "wal_records_replayed"] == len(TAIL)
        # Snapshot restore + one batch (N + 1 before batching).
        assert recovered.version_publishes == 2
        assert clones == [URI]
        assert observe(recovered) == observe(never_crashed_twin(TAIL))
    finally:
        recovered.close()


def test_batch_clones_each_document_once(tmp_path, monkeypatch):
    directory = tmp_path / "db"
    database = Database.open(directory, checkpoint_every=0, fsync=False)
    database.load(DOC, uri=URI)
    database.load(OTHER_DOC, uri=OTHER)
    for index, op in enumerate(TAIL):
        apply(database, op)
        database.insert("/s", f"<t{index}/>", uri=OTHER)
    expected = {uri: serialize(database.document(uri).node_for(0))
                for uri in (URI, OTHER)}
    vector = database.version_vector()
    database.close()

    clones = []
    original = Database._clone_version

    def counting_clone(self, base):
        clones.append(base.uri)
        return original(self, base)

    monkeypatch.setattr(Database, "_clone_version", counting_clone)
    recovered = Database.open(directory, read_only=True)
    try:
        assert sorted(clones) == [URI, OTHER]
        assert recovered.version_publishes == 2
        assert recovered.version_vector() == vector
        assert {uri: serialize(recovered.document(uri).node_for(0))
                for uri in (URI, OTHER)} == expected
    finally:
        recovered.close()


def _insert_record(parent_path, fragment, position, generation,
                   uri=URI) -> dict:
    return {"op": "insert", "uri": uri, "parent_path": parent_path,
            "fragment": fragment, "position": position,
            "generation": generation}


def test_load_record_publishes_pending_batch_first():
    database = Database()
    database.load(DOC, uri=URI)
    publishes = database.version_publishes
    records = [
        _insert_record("/r", "<x/>", 2, 1),
        {"op": "load", "uri": OTHER, "xml": OTHER_DOC},
        _insert_record("/r", "<y/>", 3, 2),
        _insert_record("/s", "<z/>", 1, 1, uri=OTHER),
    ]
    with database.write_locked():
        assert database._replay_records(records) == len(records)
    # Pending successor before the load, the load, the closing batch.
    assert database.version_publishes == publishes + 3
    assert serialize(database.document(URI).node_for(0)) \
        == "<r><a>1</a><b>2</b><x/><y/></r>"
    assert serialize(database.document(OTHER).node_for(0)) \
        == "<s><c>3</c><z/></s>"
    assert database.version_vector()["generations"] == {URI: 2, OTHER: 1}


def test_single_record_replay_is_a_batch_of_one():
    database = Database()
    database.load(DOC, uri=URI)
    publishes = database.version_publishes
    with database.write_locked():
        database._replay_record(_insert_record("/r", "<x/>", 2, 1))
    assert database.version_publishes == publishes + 1
    assert database._replay_pending is None
    assert database.query("//x").values() == [""]


def test_failed_batch_publishes_nothing():
    database = Database()
    database.load(DOC, uri=URI)
    database.query("//x")                # warm the result cache
    before = observe(database)
    publishes = database.version_publishes
    published = database._snapshot
    records = [
        _insert_record("/r", "<x/>", 2, 1),
        _insert_record("//x", "<w/>", 0, 99),   # wrong generation stamp
    ]
    with database.write_locked():
        with pytest.raises(RecoveryError):
            database._replay_records(records)
    assert database._snapshot is published
    assert database.version_publishes == publishes
    assert database._replay_pending is None
    assert observe(database) == before
    # The dropped successor is gone: the same records, correctly
    # stamped, replay cleanly from the published version.
    records[1]["generation"] = 2
    with database.write_locked():
        database._replay_records(records)
    assert serialize(database.document().node_for(0)) \
        == "<r><a>1</a><b>2</b><x><w/></x></r>"
