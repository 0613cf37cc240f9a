"""The write-ahead log: logical update records, fsynced before apply.

Every structural update (``load`` / ``insert`` / ``delete``) appends one
**logical** record — the operation, its target path, the fragment text,
and the expected post-apply generation — to the current WAL file, and
the append is flushed *and fsynced* before the in-memory stores are
touched.  Because the database's writer mutex makes writers exclusive,
WAL appends are trivially serialized: there is exactly one writer inside
the critical section, so records land in exactly the order the deltas
are applied.

File layout::

    RXWAL001                      8-byte magic
    [u32 length][u32 crc32][payload]   repeated

where ``payload`` is :func:`repro.durability.format.pack_obj` applied to
the record dict.  A crash can tear the last record (short write) or
leave garbage after the last fsynced byte; :func:`read_records` stops at
the first frame that is short or fails its CRC, and :meth:`
WriteAheadLog.open` **truncates** the file back to the last valid
boundary so the torn bytes can never resurface.

The constructor takes an injectable ``opener`` so the crash-injection
harness (``tests/durability/faults.py``) can interpose a
``FaultingFile`` that dies after *k* bytes or swallows fsyncs.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import Any, Callable, Optional

from repro.errors import WALCorruptError
from repro.durability.format import crc32, pack_obj, unpack_obj

__all__ = ["WriteAheadLog", "read_records", "WAL_MAGIC", "FRAME_HEADER"]

WAL_MAGIC = b"RXWAL001"
FRAME_HEADER = struct.Struct(">II")  # payload length, payload crc32


def read_records(path: Path) -> tuple[list[dict], int, list[int]]:
    """Parse a WAL file leniently.

    Returns ``(records, valid_length, boundaries)`` where
    ``valid_length`` is the byte offset of the last complete, CRC-valid
    record (everything past it is a torn tail to be truncated) and
    ``boundaries`` lists the end offset of every valid record — the
    crash-injection suite uses these to enumerate crash points.

    A missing file reads as empty.  A non-empty file whose first 8 bytes
    are present but are not the WAL magic raises
    :class:`WALCorruptError`; a file shorter than the magic is treated
    as a torn creation (valid length 0).
    """
    path = Path(path)
    if not path.exists():
        return [], 0, []
    data = path.read_bytes()
    if len(data) < len(WAL_MAGIC):
        return [], 0, []
    if data[:len(WAL_MAGIC)] != WAL_MAGIC:
        raise WALCorruptError(f"{path} does not start with the WAL magic")
    offset = len(WAL_MAGIC)
    records: list[dict] = []
    boundaries: list[int] = []
    size = len(data)
    while offset < size:
        if offset + FRAME_HEADER.size > size:
            break  # torn frame header
        length, expected_crc = FRAME_HEADER.unpack_from(data, offset)
        start = offset + FRAME_HEADER.size
        end = start + length
        if end > size:
            break  # torn payload
        payload = data[start:end]
        if crc32(payload) != expected_crc:
            break  # torn or corrupted tail
        try:
            record = unpack_obj(payload)
        except Exception:
            break  # CRC collided with garbage; treat as torn
        records.append(record)
        boundaries.append(end)
        offset = end
    valid_length = boundaries[-1] if boundaries else len(WAL_MAGIC)
    return records, valid_length, boundaries


class WriteAheadLog:
    """An append-only, checksummed logical log over one file."""

    def __init__(self, path, fsync: bool = True,
                 opener: Optional[Callable[[Path, str], Any]] = None):
        self.path = Path(path)
        self.fsync_enabled = fsync
        self._opener = opener or (lambda p, mode: open(p, mode))
        self._fh: Optional[Any] = None
        self.records_appended = 0
        self.bytes_appended = 0

    # -- lifecycle ---------------------------------------------------------------

    @classmethod
    def open(cls, path, fsync: bool = True,
             opener: Optional[Callable[[Path, str], Any]] = None
             ) -> tuple["WriteAheadLog", list[dict]]:
        """Open (creating if needed) the log at ``path``.

        Scans existing content, **truncates any torn tail**, and returns
        the log plus every surviving record for replay.
        """
        path = Path(path)
        records, valid_length, _ = read_records(path)
        if path.exists():
            actual = path.stat().st_size
            if valid_length < len(WAL_MAGIC):
                # Torn creation: rewrite from scratch below.
                path.unlink()
            elif actual > valid_length:
                with open(path, "r+b") as fh:
                    fh.truncate(valid_length)
                    fh.flush()
                    os.fsync(fh.fileno())
        wal = cls(path, fsync=fsync, opener=opener)
        wal._ensure_open()
        return wal, records

    def _ensure_open(self) -> None:
        if self._fh is not None:
            return
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        self._fh = self._opener(self.path, "ab")
        if fresh:
            self._fh.write(WAL_MAGIC)
            self._sync()

    def _sync(self) -> None:
        self._fh.flush()
        if self.fsync_enabled:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        if self._fh is not None:
            try:
                self._sync()
            finally:
                self._fh.close()
                self._fh = None

    @property
    def size_bytes(self) -> int:
        """Current on-disk size of the log."""
        try:
            return self.path.stat().st_size
        except OSError:
            return 0

    # -- appending ---------------------------------------------------------------

    def append(self, record: dict) -> int:
        """Append one logical record, flush, and fsync.

        Returns the frame size in bytes.  The caller (the database's
        update path) only mutates in-memory state *after* this returns,
        which is the write-ahead invariant: any applied delta is on
        disk, so a crash at any later point replays it.
        """
        self._ensure_open()
        payload = pack_obj(record)
        frame = FRAME_HEADER.pack(len(payload), crc32(payload)) + payload
        self._fh.write(frame)
        self._sync()
        self.records_appended += 1
        self.bytes_appended += len(frame)
        return len(frame)

    def stats(self) -> dict:
        """Per-instance append accounting (resets on rotation — the
        durability manager keeps the cross-rotation cumulative figures
        that feed ``repro_wal_records_total``/``repro_wal_bytes_total``)."""
        return {
            "path": str(self.path),
            "records_appended": self.records_appended,
            "bytes_appended": self.bytes_appended,
            "size_bytes": self.size_bytes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<WriteAheadLog {self.path.name} "
                f"appended={self.records_appended}>")
