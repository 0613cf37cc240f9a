"""Columnar label view — parallel arrays for array-at-a-time execution.

The succinct and interval stores answer *per-node* questions (``tag``,
``parent``, ``pre_end``); the vectorized execution path
(:mod:`repro.physical.columnar`) instead evaluates whole structural
predicates as range operations over label **columns**: for a node with
pre-order id ``p``,

* ``end[p]``    — pre id of the last descendant (the subtree window is
  ``(p, end[p]]`` — the XPath-accelerator interval),
* ``level[p]``  — depth (document node = 0),
* ``parent[p]`` — pre id of the parent (-1 for the document node),

plus, per tag, the sorted array of pre ids carrying that tag (the tag
index's posting list).

Columns are flat :class:`array.array` typed arrays: contiguous machine
integers, so ``bisect`` probes, slicing, and set/comprehension sweeps
run at C speed with no per-node object dispatch.  A view *wraps* the
interval store's and tag index's arrays rather than copying them, so
building one is O(1).  Sharing is safe because a published document
version is never mutated (updates splice a copy-on-write successor);
a writer that splices a private successor in place drops that
runtime's view through :class:`~repro.physical.base.MatchRuntime`.
Kind key arrays are materialised lazily per requested kind and
memoized.
"""

from __future__ import annotations

from array import array
from typing import Optional

from repro.storage.interval import IntervalDocument
from repro.storage.succinct import KIND_ATTRIBUTE, KIND_ELEMENT, KIND_TEXT

__all__ = ["ColumnarView"]


class ColumnarView:
    """Read-only label columns over one document state.

    ``end``/``level``/``parent`` and the kind bytes are the interval
    store's own columns; per-tag pre arrays are the tag index's; per-kind
    pre arrays come from :meth:`kind_pres` on demand and are cached for
    the lifetime of the view.
    """

    __slots__ = ("end", "level", "parent", "node_count", "_tag_index",
                 "_kind_pres", "_kinds")

    def __init__(self, interval: IntervalDocument, tag_index,
                 kinds: Optional[bytes] = None):
        self.node_count = len(interval)
        self.end = interval.end
        self.level = interval.level
        self.parent = interval.parent
        self._tag_index = tag_index
        self._kinds = interval.kinds if kinds is None else kinds
        self._kind_pres: dict[int, array] = {}

    # -- key columns -------------------------------------------------------------

    def tags(self) -> list[str]:
        """Every tag with at least one posting."""
        return self._tag_index.tags()

    def tag_pres(self, tag: str) -> array:
        """Sorted pre ids of the nodes tagged ``tag`` (possibly empty) —
        the tag index's array itself, not a copy."""
        return self._tag_index.pres(tag)

    def kind_pres(self, kind: int) -> array:
        """Sorted pre ids of every node of ``kind`` (wildcard vertices)."""
        pres = self._kind_pres.get(kind)
        if pres is None:
            pres = array("q")
            pres.extend(pre for pre, k in enumerate(self._kinds)
                        if k == kind)
            self._kind_pres[kind] = pres
        return pres

    def element_pres(self) -> array:
        return self.kind_pres(KIND_ELEMENT)

    def attribute_pres(self) -> array:
        return self.kind_pres(KIND_ATTRIBUTE)

    def text_pres(self) -> array:
        return self.kind_pres(KIND_TEXT)

    # -- accounting --------------------------------------------------------------

    def size_bytes(self) -> int:
        """Bytes of the label columns the view exposes (8 bytes per
        entry of each ``array('q')``) plus its own kind arrays."""
        resident = 8 * (len(self.end) + len(self.level) + len(self.parent))
        resident += sum(8 * len(a) for a in self._kind_pres.values())
        return resident

    def __repr__(self) -> str:
        return (f"<ColumnarView nodes={self.node_count} "
                f"kinds_cached={len(self._kind_pres)}>")
