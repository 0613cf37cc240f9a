"""The snapshot container: a whole database state in one checksummed file.

Layout::

    RXSNAP01 [u32 version]
    section "meta"            load epoch, default uri, document count
    per document i:
      section "doc<i>:header"        uri + update generation
      section "doc<i>:succinct"      BP bits, tags, kinds, symbols, content
                                     (the paper's storage format, encoded
                                     from the label columns on write)
      section "doc<i>:interval"      post/end/level/parent label columns
      section "doc<i>:tagindex"      tag -> [pre...] postings
      section "doc<i>:statistics"    every cost-model counter + generation
      section "doc<i>:valueindex"    string-index entries + tombstone state
      section "doc<i>:numericindex"  numeric-index entries + tombstone state
    section "end"             (empty; a file without it is truncated)

Every section carries its own CRC32 (see
:mod:`repro.durability.format`), so corruption anywhere is detected on
load and recovery can fall back to the previous snapshot generation.

Loading a snapshot **bypasses XML parsing and** ``rebuild_derived``:
the succinct section decodes straight into the tag, kind and value
columns (its BP bits are checked against the ``level`` column, not
navigated), and every derived structure — tag index, statistics, both
value indexes — is restored *verbatim* through the storage classes'
``from_snapshot`` / ``restore`` constructors.  Nothing is built per
node: a restored version's query results and its document node
(``version.tree``) are handles on its columns
(:mod:`repro.storage.handles`).
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import BinaryIO, Union

from repro.errors import SnapshotCorruptError
from repro.storage.succinct import SuccinctDocument
from repro.durability.format import pack_obj, unpack_obj, write_section, \
    read_sections

__all__ = ["write_snapshot", "read_snapshot", "SNAPSHOT_MAGIC",
           "SNAPSHOT_VERSION"]

SNAPSHOT_MAGIC = b"RXSNAP01"
SNAPSHOT_VERSION = 1

_DOC_SECTIONS = ("header", "succinct", "interval", "tagindex",
                 "statistics", "valueindex", "numericindex")


def write_snapshot(out: BinaryIO, database) -> dict:
    """Serialize every loaded document of ``database`` into ``out``.

    The caller holds the database's write lock (checkpoints are
    exclusive), so the state cannot move underneath the serializers.
    Returns ``{"documents": n, "bytes": total}``.
    """
    total = out.write(SNAPSHOT_MAGIC + struct.pack(">I", SNAPSHOT_VERSION))
    meta = {
        "load_epoch": database._load_epoch,
        "default_uri": database._default_uri,
        "documents": len(database.documents),
    }
    total += write_section(out, "meta", pack_obj(meta))
    for index, (uri, document) in enumerate(database.documents.items()):
        parts = {
            "header": {"uri": uri, "generation": document.generation},
            "succinct": SuccinctDocument.from_columns(
                document.interval, document.content).to_snapshot(),
            "interval": document.interval.to_snapshot(),
            "tagindex": document.tag_index.postings_snapshot(),
            "statistics": document.statistics.to_snapshot(),
            "valueindex": document.value_index.to_snapshot(),
            "numericindex": document.numeric_index.to_snapshot(),
        }
        for kind in _DOC_SECTIONS:
            total += write_section(out, f"doc{index}:{kind}",
                                   pack_obj(parts[kind]))
    total += write_section(out, "end", b"")
    return {"documents": len(database.documents), "bytes": total}


def read_snapshot(source: Union[str, Path, bytes]) -> dict:
    """Parse and validate a snapshot file (path or raw bytes).

    Returns the decoded state::

        {"load_epoch": int, "default_uri": str | None,
         "documents": [{"header": ..., "succinct": ..., ...}, ...]}

    Raises :class:`SnapshotCorruptError` on any structural damage: bad
    magic, unknown version, truncated or CRC-failing section, missing
    ``end`` marker, or a document missing one of its sections.
    """
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
    else:
        data = source
    prefix = len(SNAPSHOT_MAGIC) + 4
    if len(data) < prefix or data[:len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
        raise SnapshotCorruptError("not a snapshot file (bad magic)")
    (version,) = struct.unpack_from(">I", data, len(SNAPSHOT_MAGIC))
    if version != SNAPSHOT_VERSION:
        raise SnapshotCorruptError(f"unsupported snapshot version "
                                   f"{version}")
    meta = None
    documents: dict[int, dict] = {}
    saw_end = False
    for kind, payload in read_sections(data, prefix):
        if kind == "meta":
            meta = unpack_obj(payload)
        elif kind == "end":
            saw_end = True
        elif kind.startswith("doc") and ":" in kind:
            doc_part, section = kind.split(":", 1)
            if not doc_part[3:].isdigit():
                raise SnapshotCorruptError(
                    f"malformed section kind {kind!r}")
            doc_index = int(doc_part[3:])
            documents.setdefault(doc_index, {})[section] = \
                unpack_obj(payload)
        else:
            raise SnapshotCorruptError(f"unknown section kind {kind!r}")
    if meta is None:
        raise SnapshotCorruptError("snapshot has no meta section")
    if not saw_end:
        raise SnapshotCorruptError("snapshot is missing its end marker "
                                   "(truncated write)")
    if len(documents) != meta["documents"]:
        raise SnapshotCorruptError(
            f"snapshot advertises {meta['documents']} documents but "
            f"holds {len(documents)}")
    ordered = []
    for doc_index in sorted(documents):
        parts = documents[doc_index]
        missing = [s for s in _DOC_SECTIONS if s not in parts]
        if missing:
            raise SnapshotCorruptError(
                f"document {doc_index} is missing sections {missing}")
        ordered.append(parts)
    return {
        "load_epoch": meta["load_epoch"],
        "default_uri": meta["default_uri"],
        "documents": ordered,
    }
