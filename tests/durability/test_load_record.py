"""A ``load`` WAL record replays to the columns the primary stored.

Normal recovery restores the checkpoint that follows every load, so the
load record itself is replayed only by a recovery from before that
checkpoint or by a replica catching up from the start of the WAL.
Both are compared here with the primary column for column (kinds,
tags, values, parents, ends), not through serializations, on documents
whose text the serializer could lose: empty CDATA sections,
whitespace-only text kept with ``keep_whitespace=True``, CDATA next to
text, comments and processing instructions.
"""

from __future__ import annotations

import shutil

import pytest

from repro import Database
from repro.replication import Replica, ReplicationPublisher
from repro.replication.replica import LocalSource

URI = "doc.xml"

DOCUMENTS = {
    "empty-cdata": "<r><![CDATA[]]><a/></r>",
    "only-empty-cdata": "<r><e><![CDATA[]]></e><![CDATA[]]></r>",
    "whitespace": "<r>\n  <a> </a>\n  <b>\t</b>\n</r>",
    "cdata-and-text": "<r>x<![CDATA[<y> & ]]>z<![CDATA[]]><a/>"
                      "<![CDATA[q]]></r>",
    "comments-and-pis": "<?top data?><!--head--><r><!--c--><?p d?>"
                        "<a>t<!---->u</a><?q?></r><!--tail-->",
}


def columns(database: Database) -> tuple:
    interval = database.document(URI).interval
    return (bytes(interval.kinds), list(interval.tags),
            list(interval.values), interval.parent.tolist(),
            interval.end.tolist())


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_replay_from_wal_start_matches_primary(tmp_path, name):
    primary = Database.open(tmp_path / "primary", checkpoint_every=0,
                            fsync=False)
    primary.load(DOCUMENTS[name], uri=URI, keep_whitespace=True)
    primary.insert("/r", "<n>1</n>")
    expected = columns(primary)
    primary.close()
    # The load's checkpoint out of the way: recovery replays every WAL
    # record from the first segment.
    shutil.copytree(tmp_path / "primary", tmp_path / "replay",
                    ignore=shutil.ignore_patterns("snapshot-*"))
    replayed = Database.open(tmp_path / "replay", read_only=True)
    assert replayed.durability.last_recovery["snapshot_generation"] is None
    assert columns(replayed) == expected


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_replica_from_segment_zero_matches_primary(tmp_path, name):
    primary = Database.open(tmp_path / "primary", checkpoint_every=0,
                            fsync=False)
    try:
        primary.load(DOCUMENTS[name], uri=URI, keep_whitespace=True)
        primary.insert("/r", "<n>1</n>")
        publisher = ReplicationPublisher(primary)
        # Never bootstrapped: the replica starts empty at the first
        # segment and applies the load record itself.
        replica = Replica(LocalSource(publisher), replica_id="from-zero")
        for _ in range(20):
            replica.poll_once()
            if replica.applied_lsn >= publisher.primary_lsn():
                break
        assert replica.records_applied == 2
        assert replica.database.version_vector() \
            == primary.version_vector()
        assert columns(replica.database) == columns(primary)
    finally:
        primary.close()
