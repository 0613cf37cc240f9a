"""Durability: on-disk snapshots + write-ahead log with crash recovery.

Layers (bottom up):

* :mod:`repro.durability.format` — checksummed object encoding and the
  per-section framing shared by snapshots and the WAL;
* :mod:`repro.durability.wal` — the append-only logical log with
  fsync-before-apply semantics and torn-tail truncation;
* :mod:`repro.durability.snapshot` — the whole-database snapshot
  container whose load path bypasses XML parsing and
  ``rebuild_derived`` entirely;
* :mod:`repro.durability.checkpoint` — atomic snapshot publication,
  WAL rotation and generation pruning;
* :mod:`repro.durability.recovery` — newest-valid-snapshot selection
  with corruption fallback, plus WAL replay;
* :mod:`repro.durability.manager` — the policy object a durable
  :class:`~repro.engine.database.Database` owns.
"""

from repro.durability.manager import DurabilityManager
from repro.durability.snapshot import read_snapshot, write_snapshot
from repro.durability.wal import WriteAheadLog, read_records
from repro.durability.checkpoint import list_generations, snapshot_path, \
    wal_path

__all__ = [
    "DurabilityManager",
    "WriteAheadLog",
    "read_records",
    "write_snapshot",
    "read_snapshot",
    "list_generations",
    "snapshot_path",
    "wal_path",
]
