"""Tag index: element name -> pre-order posting list.

Join-based plans "first select a list of XML tree nodes that satisfy the
node-associated constraints for each pattern tree node, and then pairwise
join the lists" (Section 5).  The selection step is exactly a posting-list
fetch from this index.

A posting list is one sorted ``array('q')`` of pre ids per tag — the key
column the columnar kernels probe directly.  The join baselines read
full *(pre, post, level)* records, materialised from the interval
columns on first request and memoised until the next splice.  I/O is
charged per posting list scanned: each list is a segment read
sequentially.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Optional

from repro.storage.interval import IntervalDocument, IntervalNode, shifted
from repro.storage.pages import PageManager

__all__ = ["TagIndex"]

_POSTING_BYTES = 12  # pre + post as 4-byte ints, level + slack
_NO_PRES = array("q")


class TagIndex:
    """An inverted index from tag (element/attribute/leaf name) to the
    document-ordered pre ids of its nodes."""

    def __init__(self, document: IntervalDocument,
                 pages: Optional[PageManager] = None):
        pres: dict[str, array] = {}
        for pre, tag in enumerate(document.tags):
            group = pres.get(tag)
            if group is None:
                group = pres[tag] = array("q")
            group.append(pre)
        self._setup(document, pres, pages)

    @classmethod
    def restore(cls, document: IntervalDocument,
                postings: dict[str, list[int]],
                pages: Optional[PageManager] = None) -> "TagIndex":
        """Rebuild an index verbatim from a :meth:`postings_snapshot`
        (or from another index's pre arrays, which are copied).  Used by
        snapshot recovery and version cloning to bypass the construction
        scan."""
        index = cls.__new__(cls)
        index._setup(document, {tag: array("q", pres)
                                for tag, pres in postings.items()}, pages)
        return index

    def clone(self, document: IntervalDocument) -> "TagIndex":
        """A copy over ``document`` (the cloned interval store) for
        copy-on-write versioning: one array copy per tag."""
        return self.restore(document, self._pres, self._pages)

    def _setup(self, document: IntervalDocument, pres: dict[str, array],
               pages: Optional[PageManager]) -> None:
        self._document = document
        self._pres = pres
        self._records: dict[str, list[IntervalNode]] = {}
        self._pages = pages
        self._segments = {}
        for tag in pres:
            self._resize_segment(tag)

    def _resize_segment(self, tag: str) -> None:
        """Point ``tag``'s segment extent at its current list length
        (segments are named per document uri)."""
        if self._pages is None:
            return
        length = _POSTING_BYTES * len(self._pres[tag])
        segment = self._pages.segment(
            f"tagindex:{self._document.uri}:{tag}", length)
        segment.length = length
        self._segments[tag] = segment

    def tags(self) -> list[str]:
        """All indexed tags."""
        return list(self._pres)

    def cardinality(self, tag: str) -> int:
        """Number of postings for ``tag`` (0 when absent)."""
        return len(self._pres.get(tag, ()))

    def _charge(self, tag: str) -> None:
        if self._pages is not None and tag in self._segments:
            self._pages.sequential_scan(self._segments[tag])

    def pres(self, tag: str, charge: bool = False) -> array:
        """The sorted pre ids of ``tag`` (shared; never mutate it).
        ``charge=True`` bills a sequential scan of the list's segment."""
        if charge:
            self._charge(tag)
        return self._pres.get(tag, _NO_PRES)

    def postings(self, tag: str, charge: bool = True) -> list[IntervalNode]:
        """The document-ordered posting records for ``tag``.

        ``charge=True`` bills a sequential scan of the list's segment —
        the cost a join-based plan pays per pattern node.  Records are
        built on first request and memoised until the next splice (two
        racing readers may both build them; either result is correct).
        """
        pres = self._pres.get(tag)
        if pres is None:
            return []
        if charge:
            self._charge(tag)
        records = self._records.get(tag)
        if records is None:
            records = self._records[tag] = self._document.records(pres)
        return records

    # -- incremental maintenance --------------------------------------------------

    def _shift_suffixes(self, start: int, stop: int, delta: int) -> int:
        """For every tag, drop the pre ids in ``[start, stop)`` and add
        ``delta`` to those at or after ``stop``; returns the number of
        ids dropped."""
        dropped = 0
        for pres in self._pres.values():
            low = bisect_left(pres, start)
            if low == len(pres):
                continue
            high = bisect_left(pres, stop, low)
            dropped += high - low
            pres[low:] = shifted(pres[high:], delta)
        return dropped

    def apply_insert(self, start: int, count: int) -> int:
        """Splice the ``count`` nodes the interval store just inserted at
        ``start`` into the posting lists (call after the interval splice).
        Per tag one binary search plus one suffix shift.  Returns the
        number of postings added."""
        self._records = {}
        self._shift_suffixes(start, start, count)
        tags = self._document.tags
        for pre in range(start, start + count):
            pres = self._pres.setdefault(tags[pre], array("q"))
            pres.insert(bisect_left(pres, pre), pre)
        for tag in set(tags[start:start + count]):
            self._resize_segment(tag)
        return count

    def apply_delete(self, start: int, count: int) -> int:
        """Drop the postings of the ``count``-node subtree at ``start``
        (call *before* the interval store splices it out, while its tags
        are still readable).  Returns the postings dropped."""
        self._records = {}
        touched = set(self._document.tags[start:start + count])
        if self._shift_suffixes(start, start + count, -count) != count:
            raise ValueError("tag index postings out of sync")
        for tag in touched:
            if self._pres[tag]:
                self._resize_segment(tag)
            else:
                del self._pres[tag]
                self._segments.pop(tag, None)
        return count

    def postings_snapshot(self) -> dict[str, list[int]]:
        """``tag -> [pre, ...]`` for checkpoints and the debug
        cross-check."""
        return {tag: pres.tolist() for tag, pres in self._pres.items()}

    def size_bytes(self) -> int:
        """Bytes charged: one 12-byte posting per node plus the tag
        dictionary."""
        entries = sum(len(pres) for pres in self._pres.values())
        dictionary = sum(len(tag.encode("utf-8")) + 5 for tag in self._pres)
        return _POSTING_BYTES * entries + dictionary

    def __repr__(self) -> str:
        return f"<TagIndex tags={len(self._pres)}>"
