"""Replica apply of a ship batch as one engine replay batch.

A poll's fresh records are replayed into one unpublished successor and
published once; ``applied_lsn`` moves to the batch's last record only
after that publish; a re-delivered batch is skipped whole; and a
record with a wrong generation stamp drops the unpublished batch —
readers never see it — before the replica re-bootstraps.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.replication import Replica, ReplicationPublisher
from repro.replication.log import lsn_from_wire
from repro.replication.replica import LocalSource

from tests.replication.harness import URI, assert_parity

DOC = "<r><a>alpha</a><b>7</b></r>"
PROBES = ["r", "a", "b", "n0", "n1", "n2", "n3", "n4", "n5"]


class ScriptedSource(LocalSource):
    """A :class:`LocalSource` that remembers the last ``wal`` response
    and can re-deliver it, corrupt one record's generation stamp, or
    run a hook when the replica asks for a snapshot."""

    def __init__(self, publisher):
        super().__init__(publisher)
        self.last = None
        self.redeliver = False
        self.corrupt_index = None
        self.on_snapshot = None

    def wal(self, replica_id, lsn, max_records):
        if self.redeliver:
            self.redeliver = False
            return self.last
        response = super().wal(replica_id, lsn, max_records)
        if self.corrupt_index is not None:
            records = [dict(record) for record in response["records"]]
            records[self.corrupt_index]["generation"] += 7
            response = dict(response, records=records)
            self.corrupt_index = None
        self.last = response
        return response

    def snapshot(self, replica_id):
        if self.on_snapshot is not None:
            self.on_snapshot()
        return super().snapshot(replica_id)


@pytest.fixture
def cluster(tmp_path):
    primary = Database.open(tmp_path / "primary", checkpoint_every=0,
                            fsync=False)
    primary.load(DOC, uri=URI)
    source = ScriptedSource(ReplicationPublisher(primary))
    replica = Replica(source, replica_id="batch", poll_interval=0.0)
    replica.register()
    replica.bootstrap()
    yield primary, source, replica
    primary.close()


def write(primary: Database, count: int, start: int = 0) -> None:
    for index in range(start, start + count):
        primary.insert("/r", f"<n{index}>v{index}</n{index}>")


def last_record_lsn(response: dict) -> tuple[int, int]:
    return (lsn_from_wire(response["lsn"])[0], response["offsets"][-1])


def test_poll_publishes_once_and_moves_cursor_after(cluster, monkeypatch):
    primary, source, replica = cluster
    database = replica.database
    write(primary, 5)
    cursor_at_publish = []
    publish = database._publish

    def spying_publish(*args):
        cursor_at_publish.append(replica.applied_lsn)
        publish(*args)

    monkeypatch.setattr(database, "_publish", spying_publish)
    cursor = replica.applied_lsn
    publishes = database.version_publishes

    assert replica.poll_once() == 5
    assert database.version_publishes == publishes + 1
    # The batch was published while the cursor still sat before it.
    assert cursor_at_publish == [cursor]
    assert replica.applied_lsn == last_record_lsn(source.last)
    assert replica.applied_lsn == source.publisher.primary_lsn()
    assert replica.records_applied == 5
    assert_parity(primary, database, PROBES, "after one batch")


def test_redelivered_batch_is_skipped_whole(cluster):
    primary, source, replica = cluster
    database = replica.database
    write(primary, 4)
    assert replica.poll_once() == 4
    cursor = replica.applied_lsn
    publishes = database.version_publishes
    vector = database.version_vector()

    source.redeliver = True
    assert replica.poll_once() == 0
    assert replica.duplicates_skipped == 4
    assert database.version_publishes == publishes
    assert replica.applied_lsn == cursor
    assert database.version_vector() == vector

    # Tailing resumes from the unmoved cursor.
    write(primary, 2, start=4)
    assert replica.poll_once() == 2
    assert replica.duplicates_skipped == 4
    assert_parity(primary, database, PROBES, "after overlap")


def test_diverged_record_is_never_published(cluster):
    primary, source, replica = cluster
    database = replica.database
    write(primary, 1)
    assert replica.poll_once() == 1
    vector = database.version_vector()
    answer = database.query("//n1").values()
    assert answer == []
    bootstraps = replica.bootstraps

    # Three fresh records; the second one's generation stamp lies.
    write(primary, 3, start=1)
    seen = []
    source.on_snapshot = lambda: seen.append(
        (database.version_vector(), database.query("//n1").values()))
    source.corrupt_index = 1
    assert replica.poll_once() == 0

    # What a lock-free reader saw between the RecoveryError and the
    # re-bootstrap: the state from before the batch, not a prefix.
    assert seen == [(vector, answer)]
    assert replica.bootstraps == bootstraps + 1
    assert replica.state == "tailing"

    source.on_snapshot = None
    while replica.applied_lsn < source.publisher.primary_lsn():
        assert replica.poll_once() > 0
    assert_parity(primary, database, PROBES, "after re-bootstrap")
