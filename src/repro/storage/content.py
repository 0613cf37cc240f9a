"""The separated content store.

Section 4.2: "schema information (tree structure consisting of tags) and
data information (element contents attached to the leaves of the subject
tree) are stored separately ... content-based indexes (such as B+ trees and
suffix trees) can be created only on the content information".

A :class:`ContentStore` is an append-only string heap: each entry is the
character data of one leaf (text node, attribute value, comment, PI data)
together with the pre-order id of the node that *owns* it.  Values are
concatenated into a single buffer with an offset table, which is both the
realistic physical layout and what the size accounting of experiment E1
charges.
"""

from __future__ import annotations

from typing import Iterator

__all__ = ["ContentStore"]


class ContentStore:
    """Append-only heap of content strings, addressed by content id."""

    __slots__ = ("_buffer", "_offsets", "_owners", "_dead", "_payload")

    def __init__(self):
        self._buffer: list[str] = []
        # _offsets[i] is the start of entry i in the concatenated buffer;
        # a final sentinel holds the total length.
        self._offsets: list[int] = [0]
        self._owners: list[int] = []
        self._dead = 0
        # UTF-8 bytes of every stored value, tombstones included (the
        # heap is append-only): kept running so size_bytes() is O(1).
        self._payload = 0

    def append(self, value: str, owner: int) -> int:
        """Store ``value`` for the node with pre-order id ``owner``;
        returns the new content id."""
        self._buffer.append(value)
        self._offsets.append(self._offsets[-1] + len(value))
        self._owners.append(owner)
        self._payload += _utf8_length(value)
        return len(self._owners) - 1

    def get(self, content_id: int) -> str:
        """The stored string for ``content_id``."""
        return self._buffer[content_id]

    def owner(self, content_id: int) -> int:
        """Pre-order id of the node owning ``content_id``."""
        return self._owners[content_id]

    def set_owner(self, content_id: int, owner: int) -> None:
        """Re-point an entry at a new owner (updates renumber nodes)."""
        self._owners[content_id] = owner

    def mark_dead(self, content_id: int) -> None:
        """Tombstone an entry (owner = -1): its node was deleted.

        The heap is append-only, so the bytes stay put; readers that
        resolve owners (value indexes, :meth:`find_exact`,
        :meth:`sorted_entries`) skip tombstones.  Compaction happens when
        a consumer rebuilds (``ContentIndex`` does this automatically
        once tombstones outnumber live entries).
        """
        if self._owners[content_id] >= 0:
            self._owners[content_id] = -1
            self._dead += 1

    def is_dead(self, content_id: int) -> bool:
        """True when the entry was tombstoned by a deletion."""
        return self._owners[content_id] < 0

    @property
    def dead_entries(self) -> int:
        """Number of tombstoned entries currently in the heap."""
        return self._dead

    @property
    def live_entries(self) -> int:
        """Number of entries still owned by a node."""
        return len(self._owners) - self._dead

    def __len__(self) -> int:
        return len(self._owners)

    def __iter__(self) -> Iterator[tuple[int, str, int]]:
        """Yields ``(content_id, value, owner)`` triples in id order."""
        for content_id, value in enumerate(self._buffer):
            yield content_id, value, self._owners[content_id]

    def entry_length(self, content_id: int) -> int:
        """Character length of the stored value (from the offset table)."""
        return self._offsets[content_id + 1] - self._offsets[content_id]

    def find_exact(self, value: str) -> list[int]:
        """Owner pre-order ids of live entries equal to ``value`` (linear
        scan; the indexed path goes through the value indexes)."""
        return [self._owners[i] for i, stored in enumerate(self._buffer)
                if stored == value and self._owners[i] >= 0]

    def sorted_entries(self) -> list[tuple[str, int]]:
        """``(value, owner)`` pairs of live entries sorted by value —
        bulk-load input for a content B+ tree."""
        pairs = [(value, self._owners[i])
                 for i, value in enumerate(self._buffer)
                 if self._owners[i] >= 0]
        pairs.sort()
        return pairs

    def clone(self) -> "ContentStore":
        """An independent copy for copy-on-write versioning: the new
        heap shares no mutable state, so ``set_owner``/``mark_dead`` on
        one version never shows through a reader pinned on another.
        The strings themselves are immutable and stay shared."""
        twin = ContentStore.__new__(ContentStore)
        twin._buffer = list(self._buffer)
        twin._offsets = list(self._offsets)
        twin._owners = list(self._owners)
        twin._dead = self._dead
        twin._payload = self._payload
        return twin

    # -- serialization -------------------------------------------------------

    def to_snapshot(self) -> dict:
        """Plain-data state for the durability layer: one concatenated
        buffer plus the offset table (the physical layout), the owner
        column, and the tombstone count."""
        return {
            "buffer": "".join(self._buffer),
            "offsets": list(self._offsets),
            "owners": list(self._owners),
        }

    @classmethod
    def from_snapshot(cls, state: dict) -> "ContentStore":
        """Rebuild a heap from :meth:`to_snapshot` output, tombstones
        (owner = -1) included."""
        store = cls()
        buffer = state["buffer"]
        offsets = list(state["offsets"])
        store._buffer = [buffer[offsets[i]:offsets[i + 1]]
                         for i in range(len(offsets) - 1)]
        store._offsets = offsets
        store._owners = list(state["owners"])
        store._dead = sum(1 for owner in store._owners if owner < 0)
        store._payload = _utf8_length(buffer)
        return store

    # -- accounting ----------------------------------------------------------

    def size_bytes(self) -> int:
        """Bytes charged: UTF-8 payload plus a 4-byte offset per entry and
        a 4-byte owner reference per entry."""
        return self._payload + 4 * (len(self._offsets) + len(self._owners))

    def __repr__(self) -> str:
        return f"<ContentStore entries={len(self._owners)}>"


def _utf8_length(value: str) -> int:
    """Bytes ``value`` occupies in UTF-8 (ASCII needs no encode)."""
    return len(value) if value.isascii() else len(value.encode("utf-8"))
