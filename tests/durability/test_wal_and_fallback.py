"""Unit tests for the WAL file format, fault injection at the file
layer, snapshot-corruption fallback, and crashes inside checkpoint."""

from __future__ import annotations

import os

import pytest

from repro import Database
from repro.errors import RecoveryError, SnapshotCorruptError, \
    WALCorruptError
from repro.durability.checkpoint import list_generations, snapshot_path, \
    wal_path
from repro.durability.format import pack_obj, unpack_obj, read_sections, \
    write_section
from repro.durability.snapshot import SNAPSHOT_MAGIC, read_snapshot
from repro.durability.wal import WAL_MAGIC, WriteAheadLog, read_records

from tests.durability.faults import (
    FaultBudget,
    SimulatedCrash,
    faulting_opener,
)

URI = "doc.xml"
DOC = ("<bib><book><title>TCP/IP</title><price>65.95</price></book>"
       "<book><title>Data on the Web</title><price>39.95</price></book>"
       "</bib>")


# -- object encoding --------------------------------------------------------------


def test_pack_obj_round_trips_every_type():
    value = {
        "none": None, "true": True, "false": False,
        "int": -(2 ** 40), "float": 3.25, "str": "héllo",
        "bytes": b"\x00\xff", "list": [1, 2, 3],
        "mixed": ["a", 1, None, [2.5]],
        "tuple_key": {("a", "b"): 4},
        "empty": [], "nested": {"k": {"j": [()]}},
    }
    assert unpack_obj(pack_obj(value)) == value


def test_int_list_fast_path_preserves_types():
    packed = unpack_obj(pack_obj({"ints": [1, 2, 3], "tup": (1, 2)}))
    assert packed["ints"] == [1, 2, 3]
    assert isinstance(packed["ints"], list)
    assert packed["tup"] == (1, 2)
    assert isinstance(packed["tup"], tuple)


def test_section_crc_detects_flip(tmp_path):
    target = tmp_path / "sections.bin"
    with open(target, "wb") as out:
        write_section(out, "meta", pack_obj({"x": 1}))
    data = bytearray(target.read_bytes())
    data[-1] ^= 0x40
    with pytest.raises(SnapshotCorruptError):
        list(read_sections(bytes(data), 0))


# -- WAL format -------------------------------------------------------------------


def test_wal_truncates_torn_tail(tmp_path):
    path = tmp_path / "wal.log"
    wal, records = WriteAheadLog.open(path)
    assert records == []
    wal.append({"op": "insert", "n": 1})
    wal.append({"op": "insert", "n": 2})
    wal.close()

    _, _, boundaries = read_records(path)
    whole = path.read_bytes()
    # Tear the second record: everything between the two boundaries.
    for cut in range(boundaries[0], boundaries[1]):
        path.write_bytes(whole[:cut])
        reopened, survivors = WriteAheadLog.open(path)
        reopened.close()
        assert [r["n"] for r in survivors] == [1]
        assert path.stat().st_size == boundaries[0]  # tail gone
    # At the boundary itself both records survive.
    path.write_bytes(whole[:boundaries[1]])
    reopened, survivors = WriteAheadLog.open(path)
    reopened.close()
    assert [r["n"] for r in survivors] == [1, 2]


def test_wal_bad_magic_raises(tmp_path):
    path = tmp_path / "wal.log"
    path.write_bytes(b"NOTMAGIC" + b"junk")
    with pytest.raises(WALCorruptError):
        read_records(path)


def test_wal_torn_creation_restarts(tmp_path):
    path = tmp_path / "wal.log"
    path.write_bytes(WAL_MAGIC[:3])  # crash before the magic landed
    wal, records = WriteAheadLog.open(path)
    assert records == []
    wal.append({"op": "x"})
    wal.close()
    records2, _, _ = read_records(path)
    assert records2 == [{"op": "x"}]


def test_faulting_file_tears_append(tmp_path):
    path = tmp_path / "wal.log"
    wal, _ = WriteAheadLog.open(path)
    wal.append({"op": "keep"})
    wal.close()
    intact = path.stat().st_size

    budget = FaultBudget(fail_after_bytes=5)
    wal = WriteAheadLog(path, opener=faulting_opener(budget))
    with pytest.raises(SimulatedCrash):
        wal.append({"op": "torn"})
    # 5 extra bytes hit the disk; reopening truncates them away.
    assert path.stat().st_size == intact + 5
    reopened, records = WriteAheadLog.open(path)
    reopened.close()
    assert [r["op"] for r in records] == ["keep"]
    assert path.stat().st_size == intact


# -- snapshot corruption fallback --------------------------------------------------


def _flip_byte(path, offset_from_end: int = 20) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) - offset_from_end] ^= 0xFF
    path.write_bytes(bytes(data))


def test_corrupt_snapshot_falls_back_to_previous_generation(tmp_path):
    live = tmp_path / "db"
    db = Database.open(live, checkpoint_every=0)
    db.load(DOC, uri=URI)                       # snapshot gen 1
    db.insert("/bib", "<book><title>New</title><price>1</price></book>")
    db.checkpoint()                             # snapshot gen 2
    db.delete("/bib/book[title = 'New']")       # logged in wal gen 2
    db.close()
    generations = list_generations(live)
    assert generations["snapshots"] == [1, 2]

    # A flipped byte inside generation 2 fails its section CRC ...
    _flip_byte(snapshot_path(live, 2))
    with pytest.raises(SnapshotCorruptError):
        read_snapshot(snapshot_path(live, 2))

    # ... so recovery falls back to generation 1 and replays both WALs
    # (the insert from wal 1 and the delete from wal 2).
    recovered = Database.open(live, debug_checks=True)
    try:
        report = recovered.durability.last_recovery
        assert report["snapshot_generation"] == 1
        assert report["corrupt_generations"] == [2]
        assert report["wal_records_replayed"] == 2
        titles = recovered.query("/bib/book/title").values()
        assert titles == ["TCP/IP", "Data on the Web"]
        # The next checkpoint must not collide with the corrupt file.
        checkpoint = recovered.checkpoint()
        assert checkpoint["generation"] == 3
    finally:
        recovered.close()


def test_inconsistent_interval_post_falls_back(tmp_path):
    """A snapshot whose sections all pass their CRCs but whose interval
    ``post`` column disagrees with ``end - level`` is corrupt too:
    recovery falls back to the previous generation."""
    live = tmp_path / "db"
    db = Database.open(live, checkpoint_every=0)
    db.load(DOC, uri=URI)                       # snapshot gen 1
    db.insert("/bib", "<book><title>New</title><price>1</price></book>")
    db.checkpoint()                             # snapshot gen 2
    db.close()

    path = snapshot_path(live, 2)
    data = path.read_bytes()
    prefix = len(SNAPSHOT_MAGIC) + 4
    with open(path, "wb") as out:
        out.write(data[:prefix])
        for kind, payload in read_sections(data, prefix):
            if kind.endswith(":interval"):
                state = unpack_obj(payload)
                state["post"][1] += 1
                payload = pack_obj(state)
            write_section(out, kind, payload)
    read_snapshot(path)  # every section checksum still passes

    recovered = Database.open(live, debug_checks=True)
    try:
        report = recovered.durability.last_recovery
        assert report["snapshot_generation"] == 1
        assert report["corrupt_generations"] == [2]
        assert recovered.query("/bib/book/title").values() == \
            ["TCP/IP", "Data on the Web", "New"]
    finally:
        recovered.close()


def test_all_snapshots_corrupt_refuses_partial_recovery(tmp_path):
    live = tmp_path / "db"
    db = Database.open(live, checkpoint_every=2)
    db.load(DOC, uri=URI)
    for index in range(4):   # force pruning past generation 0
        db.insert("/bib", f"<extra{index}>x</extra{index}>")
    db.close()
    generations = list_generations(live)
    assert 0 not in generations["wals"]  # history pruned
    for generation in generations["snapshots"]:
        _flip_byte(snapshot_path(live, generation))
    with pytest.raises(RecoveryError):
        Database.open(live)


def test_unknown_wal_record_raises(tmp_path):
    live = tmp_path / "db"
    db = Database.open(live, checkpoint_every=0)
    db.load(DOC, uri=URI)
    db.close()
    wal, _ = WriteAheadLog.open(wal_path(live, 1))
    wal.append({"op": "mystery"})
    wal.close()
    with pytest.raises(RecoveryError):
        Database.open(live)


def test_replayed_delete_between_text_siblings_passes_debug_checks(
        tmp_path):
    """Deleting the element between two text nodes leaves two adjacent
    text nodes in storage; the replayed version's model nodes must
    stay aligned with them (a grouping walk that merged the two texts
    failed the reopen's cross-check after the delete was already
    durable)."""
    live = tmp_path / "db"
    db = Database.open(live, checkpoint_every=0)
    db.load("<r>a<x/>b</r>", uri=URI)           # snapshot gen 1
    db.delete("/r/x")                           # logged in wal gen 1
    db.close()
    recovered = Database.open(live, debug_checks=True)
    try:
        assert recovered.durability.last_recovery[
            "wal_records_replayed"] == 1
        assert recovered.query("/r/text()").values() == ["a", "b"]
        assert [node.string_value() for node in
                recovered.reference_query("/r/text()")] == ["a", "b"]
        recovered.verify_derived(recovered.document(URI))
    finally:
        recovered.close()


# -- crash inside checkpoint -------------------------------------------------------


def test_crash_mid_snapshot_write_keeps_previous_generation(tmp_path):
    live = tmp_path / "db"
    db = Database.open(live, checkpoint_every=0)
    db.load(DOC, uri=URI)
    db.insert("/bib", "<book><title>New</title><price>1</price></book>")
    db.close()

    # Re-open with a snapshot opener that dies after 100 bytes: the
    # checkpoint crashes before publication (no rename happens).
    budget = FaultBudget(fail_after_bytes=100)
    crashing = Database.open(live, checkpoint_every=0,
                             snapshot_opener=faulting_opener(budget))
    with pytest.raises(SimulatedCrash):
        crashing.checkpoint()

    leftovers = [p.name for p in live.iterdir()
                 if p.name.endswith(".snap.tmp")]
    assert leftovers  # the torn temp file is lying around ...
    assert list_generations(live)["snapshots"] == [1]

    recovered = Database.open(live, debug_checks=True)
    try:
        # ... recovery ignores it and state is intact.
        titles = recovered.query("/bib/book/title").values()
        assert titles == ["TCP/IP", "Data on the Web", "New"]
        # The next successful checkpoint cleans the temp file up.
        recovered.checkpoint()
        assert not [p for p in live.iterdir()
                    if p.name.endswith(".snap.tmp")]
    finally:
        recovered.close()


def test_dropped_fsync_is_observable(tmp_path):
    """drop_fsync hands os.fsync a throwaway descriptor — the append
    still lands via flush (this harness can't drop page cache), but the
    budget records that durability was *not* guaranteed."""
    budget = FaultBudget(drop_fsync=True)
    wal = WriteAheadLog(tmp_path / "wal.log",
                        opener=faulting_opener(budget))
    wal.append({"op": "maybe"})
    wal.close()
    assert budget.drop_fsync
    records, _, _ = read_records(tmp_path / "wal.log")
    assert records == [{"op": "maybe"}]


# -- report plumbing ---------------------------------------------------------------


def test_storage_report_includes_durability(tmp_path):
    db = Database.open(tmp_path / "db")
    db.load(DOC, uri=URI)
    report = db.storage_report(URI)
    assert report["durability"]["generation"] == 1
    assert report["durability"]["checkpoints_written"] == 1
    db.close()
    memory = Database()
    memory.load(DOC, uri=URI)
    assert "durability" not in memory.storage_report(URI)
    assert memory.durability_report() is None
    with pytest.raises(Exception):
        memory.checkpoint()


def test_hashseed_independence_of_snapshot_bytes(tmp_path):
    """Snapshot decoding is insensitive to dict iteration details: two
    loads of the same document recover identically (the CI durability
    job runs the whole suite under PYTHONHASHSEED=0 and 1)."""
    db = Database.open(tmp_path / "db")
    db.load(DOC, uri=URI)
    db.close()
    recovered = Database.open(tmp_path / "db", debug_checks=True)
    state = read_snapshot(snapshot_path(tmp_path / "db", 1))
    assert state["documents"][0]["header"]["uri"] == URI
    recovered.close()
