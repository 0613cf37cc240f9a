"""Recovery: rebuild a live database from snapshot + WAL suffix.

``recover(manager, database)`` is what :meth:`Database.open` runs under
the write lock before the database accepts queries:

1. pick the newest snapshot generation whose file parses, passes
   every section checksum and restores; a corrupt newest generation
   falls back to the previous one (``keep_generations`` retention
   exists exactly for this), and *no* snapshot at all means an empty
   starting state;
2. the restore is verbatim, through
   :meth:`Database._restore_from_snapshot` — no XML parsing, no
   ``rebuild_derived`` — and checks what checksums cannot (the
   interval ``post`` column must equal ``end - level``);
3. replay every WAL with generation >= the chosen snapshot in
   ascending order.  Each WAL is opened through
   :meth:`WriteAheadLog.open`, which truncates a torn tail frame, so a
   crash mid-append loses exactly the unacknowledged record and
   nothing else.  Replayed records re-run the normal update paths with
   ``manager.replaying`` set (which suppresses re-logging and
   auto-checkpoints).  Each WAL's records are one replay batch
   (:meth:`Database._replay_records`): every document is cloned once
   per WAL, not once per record, and the batch is published in one
   snapshot swap;
4. the manager's generation is advanced past *every* file present on
   disk — even corrupt ones — so the next checkpoint can never collide
   with (and be masked by) a damaged file;
5. with ``debug_checks`` enabled the recovered documents are
   cross-checked against fresh rebuilds (``verify_derived``).
"""

from __future__ import annotations

from repro.errors import RecoveryError, SnapshotCorruptError, \
    WALCorruptError
from repro.durability.checkpoint import (
    list_generations,
    snapshot_path,
    wal_path,
)
from repro.durability.snapshot import read_snapshot
from repro.durability.wal import WriteAheadLog, read_records

__all__ = ["recover"]


def recover(manager, database) -> dict:
    """Restore ``database`` from ``manager.directory``.

    Each WAL file's records are handed to the engine as one replay
    batch, published in one snapshot swap (a ``load`` record publishes
    on its own).  Returns a report dict: chosen snapshot generation
    (or None), snapshots that failed validation, WAL records replayed,
    and bytes truncated from torn WAL tails.
    """
    directory = manager.directory
    generations = list_generations(directory)
    corrupt: list[int] = []
    chosen = None
    for generation in reversed(generations["snapshots"]):
        try:
            state = read_snapshot(snapshot_path(directory, generation))
            # Restoring validates what the section CRCs cannot (e.g.
            # the interval post column); it publishes only on success.
            database._restore_from_snapshot(state)
        except SnapshotCorruptError:
            corrupt.append(generation)
            continue
        chosen = generation
        break
    if chosen is None and corrupt:
        # Snapshots exist but none validates.  Replaying from an empty
        # state is only sound if the *complete* WAL history survives
        # (generation 0 onward, no pruning gaps); otherwise we would
        # silently resurrect a partial database — refuse instead.
        wals = generations["wals"]
        if not wals or wals != list(range(wals[-1] + 1)):
            raise RecoveryError(
                f"every snapshot generation is corrupt "
                f"({sorted(corrupt)}) and the WAL history is "
                f"incomplete: cannot recover")

    replay_from = chosen if chosen is not None else 0

    replayed = 0
    truncated = 0
    replay_wals = [g for g in generations["wals"] if g >= replay_from]
    manager.replaying = True
    try:
        for generation in replay_wals:
            path = wal_path(directory, generation)
            size_before = path.stat().st_size
            if getattr(manager, "read_only", False):
                # Read-only openers must not repair the directory: a
                # torn tail is parsed around (lenient read) and left on
                # disk for the writing primary to truncate.
                try:
                    records, valid_length, _ = read_records(path)
                except WALCorruptError:
                    corrupt.append(generation)
                    continue
                truncated += max(0, size_before - valid_length)
            else:
                try:
                    wal, records = WriteAheadLog.open(
                        path, fsync=manager.fsync,
                        opener=manager.wal_opener)
                except WALCorruptError:
                    # A WAL whose very header is damaged contributes
                    # nothing; the snapshot for its generation already
                    # holds everything earlier.
                    corrupt.append(generation)
                    continue
                truncated += max(0, size_before - wal.size_bytes)
                wal.close()
            replayed += database._replay_records(records)
    finally:
        manager.replaying = False

    # Never reuse a generation number that exists on disk in any form:
    # a new checkpoint must not sit beside (or behind) a corrupt file
    # with the same number.
    highest = max(
        [replay_from] + generations["snapshots"] + generations["wals"]
        + corrupt)
    manager.generation = highest
    if getattr(manager, "read_only", False):
        manager.wal = None  # log() stays a no-op; directory untouched
    else:
        current = wal_path(directory, highest)
        manager.wal, _ = WriteAheadLog.open(
            current, fsync=manager.fsync, opener=manager.wal_opener)

    if database.debug_checks:
        for document in list(database.documents.values()):
            database.verify_derived(document)

    return {
        "snapshot_generation": chosen,
        "corrupt_generations": sorted(corrupt),
        "wal_records_replayed": replayed,
        "wal_bytes_truncated": truncated,
    }
