"""The snapshot container: a whole database state in one checksummed file.

Layout::

    RXSNAP01 [u32 version]
    section "meta"            load epoch, default uri, document count
    per document i:
      section "doc<i>:header"        uri + update generation
      section "doc<i>:succinct"      BP bits, tags, kinds, symbols, content
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
every derived structure — tag index, statistics, both value indexes —
is restored *verbatim* through the storage classes' ``from_snapshot`` /
``restore`` constructors.  The only thing rebuilt is the model tree
(reference semantics need live :mod:`repro.xml.model` objects), and that
is reconstructed from the succinct store by :func:`
model_tree_from_succinct` — a plain pre-order walk, no tokenizer.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import BinaryIO, Union

from repro.errors import SnapshotCorruptError
from repro.xml import model
from repro.storage.succinct import (
    KIND_ATTRIBUTE,
    KIND_COMMENT,
    KIND_DOCUMENT,
    KIND_ELEMENT,
    KIND_PI,
    KIND_TEXT,
    SuccinctDocument,
)
from repro.durability.format import pack_obj, unpack_obj, write_section, \
    read_sections

__all__ = ["write_snapshot", "read_snapshot", "model_tree_from_succinct",
           "materialise_tree", "SNAPSHOT_MAGIC", "SNAPSHOT_VERSION"]

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
            "succinct": document.succinct.to_snapshot(),
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


def materialise_tree(interval, uri: str
                     ) -> tuple[model.Document, list]:
    """Model tree **and** storage node list from restored interval
    columns — the recovery fast path.

    The interval columns already carry everything the model needs
    (kind, tag, value, parent) in exact storage pre-order, so one flat
    loop over the zipped columns attaches each node to its (already
    materialised) parent via the bulk ``adopt`` constructors — no BP
    navigation, no per-node accessor calls, no separate
    :func:`storage_node_list` walk.  Returns ``(document, node_list)``
    where ``node_list[pre]`` is the model node for storage pre-order id
    ``pre``.
    """
    kinds = interval.kinds
    if not kinds or kinds[0] != KIND_DOCUMENT:
        raise SnapshotCorruptError(
            "interval columns do not start with a document node")
    document = model.Document(uri=uri)
    node_list: list = [document]
    attach = node_list.append
    for parent_pre, kind, tag, value in zip(
            interval.parent[1:], kinds[1:], interval.tags[1:],
            interval.values[1:]):
        parent = node_list[parent_pre]
        if kind == KIND_ELEMENT:
            node = model.Element(tag)
            parent.adopt(node)
        elif kind == KIND_TEXT:
            node = parent.adopt(model.Text(value or ""))
        elif kind == KIND_ATTRIBUTE:
            node = parent.adopt_attribute(tag[1:], value or "")
        elif kind == KIND_COMMENT:
            node = parent.adopt(model.Comment(value or ""))
        elif kind == KIND_PI:
            node = parent.adopt(model.ProcessingInstruction(
                tag[1:], value or ""))
        else:
            raise SnapshotCorruptError(f"unknown node kind {kind}")
        attach(node)
    return document, node_list


def model_tree_from_succinct(succinct: SuccinctDocument,
                             uri: str) -> model.Document:
    """Reconstruct the reference model tree from the succinct store.

    One pre-order scan, no XML tokenizer: elements, attributes, merged
    text runs, comments and processing instructions are materialised in
    exactly the order the storage scheme keeps them, so the resulting
    tree is node-for-node aligned with the storage pre-order (which is
    what :func:`repro.engine.mapping.storage_node_list` requires).
    """
    document = model.Document(uri=uri)
    parents: list = [document]
    pushed: list[bool] = []
    for event, preorder in succinct.scan(0):
        if event == "end":
            if pushed.pop():
                parents.pop()
            continue
        kind = succinct.kind(preorder)
        if kind == KIND_DOCUMENT:
            pushed.append(False)
            continue
        top = parents[-1]
        if kind == KIND_ELEMENT:
            element = model.Element(succinct.tag(preorder))
            top.append(element)
            parents.append(element)
            pushed.append(True)
            continue
        text = succinct.text_of(preorder) or ""
        if kind == KIND_ATTRIBUTE:
            top.set_attribute(succinct.tag(preorder)[1:], text)
        elif kind == KIND_TEXT:
            top.append(model.Text(text))
        elif kind == KIND_COMMENT:
            top.append(model.Comment(text))
        elif kind == KIND_PI:
            top.append(model.ProcessingInstruction(
                succinct.tag(preorder)[1:], text))
        else:  # pragma: no cover - exhaustive over KIND_*
            raise SnapshotCorruptError(f"unknown node kind {kind}")
        pushed.append(False)
    return document
