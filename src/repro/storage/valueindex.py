"""Content-value indexes that survive structural updates.

The seed engine bulk-loaded its value B+ trees with ``(value, owner)``
pairs, where ``owner`` is a storage **pre-order id**.  Pre-order ids are
exactly the thing a structural update renumbers, so every insert/delete
forced a full index rebuild.

:class:`ContentIndex` keys the B+ tree on the content string (or its
numeric interpretation) but stores **content ids** — positions in the
append-only :class:`~repro.storage.content.ContentStore` heap, which are
*stable across updates*.  Owner resolution happens at probe time through
the content store's owner column, which the succinct store already
renumbers during its splice.  Consequences:

* inserting a subtree only appends the *new* leaf values (O(new leaves
  · log n) B+ tree inserts);
* deleting a subtree tombstones the victims' heap entries (owner = -1)
  and the index skips them lazily at probe time;
* when tombstones outnumber live entries the index compacts itself
  (one bulk load over the surviving entries).

Because content ids are stable, a copy-on-write successor needs no
private copy of the tree: :meth:`ContentIndex.clone` forks the
persistent :class:`~repro.storage.btree.BPlusTree` (O(1)) over the
successor's content store.  The successor's inserts path-copy only the
nodes they touch, and the entries a successor tombstones resolve to
owner -1 through *its* owner column only, so the parent version keeps
answering as before.  A compaction bulk-builds a private tree.

The probe API (:meth:`search`, :meth:`range`) returns owner pre-order
ids, exactly like the raw B+ tree the
:class:`~repro.physical.indexscan.IndexScanMatcher` consumed before, so
the physical layer is unchanged.
"""

from __future__ import annotations

import copy
from typing import Any, Iterable, Iterator, Optional

from repro.storage.btree import BPlusTree
from repro.storage.content import ContentStore
from repro.storage.pages import Segment

__all__ = ["ContentIndex", "numeric_key"]

_MIN_COMPACT = 64   # never compact below this many tombstones


def numeric_key(value: str) -> Optional[float]:
    """The numeric index key for a content string (None = not numeric)."""
    try:
        return float(value)
    except ValueError:
        return None


class ContentIndex:
    """A value → node index backed by (key, content-id) B+ tree entries.

    ``numeric=True`` indexes ``float(value)`` for values that parse as
    numbers (string order is wrong for numbers: "9" > "10"); otherwise
    the raw content string is the key.
    """

    def __init__(self, store: ContentStore, numeric: bool = False,
                 segment: Optional[Segment] = None):
        self.store = store
        self.numeric = numeric
        self.segment = segment
        self.dead_entries = 0
        self._live_entries = 0
        self.compactions = 0
        self.tree = self._bulk_build()

    # -- construction ---------------------------------------------------------

    def _key_for(self, value: str) -> Optional[Any]:
        if self.numeric:
            return numeric_key(value)
        return value

    def _bulk_build(self) -> BPlusTree:
        pairs = []
        for content_id, value, owner in self.store:
            if owner < 0:
                continue  # tombstone left by a subtree deletion
            key = self._key_for(value)
            if key is None:
                continue
            pairs.append((key, content_id))
        pairs.sort(key=lambda pair: pair[0])
        self._live_entries = len(pairs)
        self.dead_entries = 0
        return BPlusTree.bulk_load(pairs, segment=self.segment)

    # -- incremental maintenance ------------------------------------------------

    def add_content(self, content_id: int) -> bool:
        """Index one freshly appended heap entry (True if indexed)."""
        key = self._key_for(self.store.get(content_id))
        if key is None:
            return False
        self.tree.insert(key, content_id)
        self._live_entries += 1
        return True

    def drop_content(self, content_ids: Iterable[int]) -> int:
        """Account for a batch of tombstoned heap entries, counting only
        those this index had actually indexed (the numeric index skips
        non-numeric strings).  Returns the number dropped."""
        dropped = sum(1 for content_id in content_ids
                      if self._key_for(self.store.get(content_id))
                      is not None)
        if dropped:
            self.note_dead(dropped)
        return dropped

    def note_dead(self, count: int = 1) -> None:
        """Record that ``count`` indexed entries were tombstoned; compact
        when the dead outnumber the living."""
        self.dead_entries += count
        self._live_entries = max(0, self._live_entries - count)
        if (self.dead_entries > _MIN_COMPACT
                and self.dead_entries > self._live_entries):
            self.tree = self._bulk_build()
            self.compactions += 1

    # -- serialization ------------------------------------------------------------

    def to_snapshot(self) -> dict:
        """Plain-data state for the durability layer: the sorted
        ``(key, content_id)`` entries as two *parallel columns* — a
        homogeneous key list (str for the string index, float for the
        numeric one, so the binary format's array fast paths apply) and
        an int content-id list — plus the tombstone accounting that
        drives self-compaction.  Content ids stay valid because the
        heap they address is serialized alongside."""
        keys: list = []
        content_ids: list = []
        for key, content_id in self.tree.items():
            keys.append(key)
            content_ids.append(content_id)
        return {
            "numeric": self.numeric,
            "keys": keys,
            "content_ids": content_ids,
            "dead_entries": self.dead_entries,
            "live_entries": self._live_entries,
            "compactions": self.compactions,
        }

    @classmethod
    def restore(cls, store: ContentStore, state: dict,
                segment: Optional[Segment] = None) -> "ContentIndex":
        """Rebuild an index verbatim from :meth:`to_snapshot` output:
        one bulk load zipping the parallel key/content-id columns,
        skipping the constructor's content-heap scan entirely."""
        index = cls.__new__(cls)
        index.store = store
        index.numeric = bool(state["numeric"])
        index.segment = segment
        index.dead_entries = state["dead_entries"]
        index._live_entries = state["live_entries"]
        index.compactions = state["compactions"]
        index.tree = BPlusTree.bulk_load(
            zip(state["keys"], state["content_ids"]), segment=segment)
        return index

    def clone(self, store: ContentStore) -> "ContentIndex":
        """A successor's index over ``store`` (the cloned content heap)
        for copy-on-write versioning: the tree is forked, not copied,
        and the tombstone counters carry over."""
        index = copy.copy(self)
        index.store = store
        index.tree = self.tree.fork()
        return index

    # -- probes (the IndexScanMatcher contract) -----------------------------------

    def search(self, key: Any) -> list[int]:
        """Owner pre-order ids of live entries stored under ``key``."""
        owners = []
        for content_id in self.tree.search(key):
            owner = self.store.owner(content_id)
            if owner >= 0:
                owners.append(owner)
        return owners

    def range(self, low: Any, high: Any, include_low: bool = True,
              include_high: bool = True) -> Iterator[tuple[Any, int]]:
        """``(key, owner)`` pairs of live entries with keys in range."""
        for key, content_id in self.tree.range(
                low, high, include_low=include_low,
                include_high=include_high):
            owner = self.store.owner(content_id)
            if owner >= 0:
                yield key, owner

    def entries(self) -> list[tuple[Any, int]]:
        """Sorted ``(key, owner)`` pairs of every live entry (debug
        cross-checks compare this against a fresh rebuild)."""
        pairs = []
        for key, content_id in self.tree.items():
            owner = self.store.owner(content_id)
            if owner >= 0:
                pairs.append((key, owner))
        return pairs

    # -- accounting ---------------------------------------------------------------

    def __len__(self) -> int:
        return self._live_entries

    def size_bytes(self, key_bytes: int = 16, value_bytes: int = 4) -> int:
        return self.tree.size_bytes(key_bytes=key_bytes,
                                    value_bytes=value_bytes)

    def __repr__(self) -> str:
        flavour = "numeric" if self.numeric else "string"
        return (f"<ContentIndex {flavour} live={self._live_entries} "
                f"dead={self.dead_entries}>")
