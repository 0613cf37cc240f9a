"""Document statistics for the cost model.

The paper leaves the cost model as future work (Section 2); we implement
the planned extension: simple statistics that let the optimizer estimate
posting-list sizes and join selectivities well enough to choose between
the NoK scan and index-driven join plans (experiment E5).

Collected in one pass over an :class:`IntervalDocument`:

* per-tag node counts,
* per (parent tag, child tag) edge counts — a first-order Markov model of
  the schema, enough to estimate child-step selectivities,
* per (ancestor tag, descendant tag) pair counts for ``//`` steps,
* depth histogram and value statistics (value multiplicities per tag),
* the set of tags whose elements hold fragmented (multi-run) text.

Incremental maintenance
-----------------------

Structural updates call :meth:`apply_insert` / :meth:`apply_delete` with
the affected contiguous pre-order block; every counter is adjusted by a
local delta (O(subtree · depth)) instead of a full rebuild.  Value
multiplicities are true multisets (Counters), so deleting the last node
holding a value correctly drops it from the distinct count.
``fragmented_value_tags`` comes from per-tag counts that a splice
adjusts for the block and its exterior ancestors only; it stays exact
(a stale *missing* entry would make index-scan silently lossy).
"""

from __future__ import annotations

import copy
from collections import Counter
from typing import Optional

from repro.storage.interval import IntervalDocument
from repro.storage.succinct import KIND_ATTRIBUTE, KIND_ELEMENT, KIND_TEXT

__all__ = ["DocumentStatistics"]


class DocumentStatistics:
    """One-pass statistics over a shredded document, maintainable by
    local deltas under structural updates."""

    def __init__(self, document: IntervalDocument):
        self.node_count = len(document)
        self.tag_counts: Counter[str] = Counter()
        self.edge_counts: Counter[tuple[str, str]] = Counter()
        self.descendant_counts: Counter[tuple[str, str]] = Counter()
        self.depth_histogram: Counter[int] = Counter()
        # tag -> Counter of values (multiset; len() == distinct count).
        self.distinct_values: dict[str, Counter[str]] = {}
        self.max_depth = 0
        # Tags of elements whose subtree holds >= 2 text runs: their
        # string value is fragmented across content-store entries, so a
        # content-index equality probe cannot find them (index-scan must
        # not be chosen for such tags).  ``_fragmented`` counts them
        # per tag (None: restored from a checkpoint without counts).
        self._fragmented: Optional[Counter[str]] = Counter()
        self.fragmented_value_tags: set[str] = set()
        self._accumulate(document, 0, len(document), chain=[], sign=+1)
        self._refragment(document, 0, len(document), chain=[], sign=+1)
        self.generation = 0

    # -- delta core ---------------------------------------------------------------

    def _accumulate(self, document: IntervalDocument, start: int,
                    stop: int, chain: list[int], sign: int) -> None:
        """Add (``sign=+1``) or retract (``-1``) the contributions of the
        contiguous pre-order block ``[start, stop)``.  ``chain`` holds
        the block's *exterior* ancestors, root first (empty for a whole
        document)."""
        ancestors = [document.tags[pre] for pre in chain]
        ends = [document.end[pre] for pre in chain]
        for pre, tag, kind, level, end, value in zip(
                range(start, stop), document.tags[start:stop],
                document.kinds[start:stop], document.level[start:stop],
                document.end[start:stop], document.values[start:stop]):
            while ends and ends[-1] < pre:
                ancestors.pop()
                ends.pop()
            self.tag_counts[tag] += sign
            self.depth_histogram[level] += sign
            if sign > 0:
                self.max_depth = max(self.max_depth, level)
            if ancestors:
                self.edge_counts[(ancestors[-1], tag)] += sign
                for ancestor_tag in set(ancestors):
                    self.descendant_counts[(ancestor_tag, tag)] += sign
            if kind in (KIND_TEXT, KIND_ATTRIBUTE) and value:
                owner_tag = ancestors[-1] if ancestors else tag
                key = tag if kind == KIND_ATTRIBUTE else owner_tag
                values = self.distinct_values.setdefault(key, Counter())
                values[value] += sign
                if sign < 0 and values[value] <= 0:
                    del values[value]
                    if not values:
                        del self.distinct_values[key]
            ancestors.append(tag)
            ends.append(end)
        if sign < 0:
            self._drop_zeros()

    def _drop_zeros(self) -> None:
        for counter in (self.tag_counts, self.edge_counts,
                        self.descendant_counts, self.depth_histogram):
            for key in [k for k, count in counter.items() if count <= 0]:
                del counter[key]

    def _refragment(self, document: IntervalDocument, start: int,
                    stop: int, chain: list[int], sign: int) -> None:
        """Adjust the fragmented-element counts for the block
        ``[start, stop)``, which is present in ``document`` (inserted:
        ``sign=+1``, about to be deleted: ``-1``): the block's own
        elements, plus every exterior ancestor whose text-run count
        crosses 2 by gaining or losing the block's text runs."""
        if self._fragmented is None:
            self._fragmented = Counter()
            self._refragment(document, 0, len(document), [], +1)
            if sign > 0:   # the full pass already counted the block
                return
        fragmented = self._fragmented
        kinds, ends, tags = document.kinds, document.end, document.tags
        runs = kinds.count
        for pre in range(start, stop):
            if kinds[pre] == KIND_ELEMENT \
                    and runs(KIND_TEXT, pre, ends[pre] + 1) >= 2:
                fragmented[tags[pre]] += sign
        block_runs = runs(KIND_TEXT, start, stop)
        for pre in chain:
            if kinds[pre] != KIND_ELEMENT:
                continue
            with_block = runs(KIND_TEXT, pre, ends[pre] + 1)
            if with_block >= 2 and with_block - block_runs < 2:
                fragmented[tags[pre]] += sign
        for tag in [tag for tag, count in fragmented.items() if count <= 0]:
            del fragmented[tag]
        self.fragmented_value_tags = set(fragmented)

    @staticmethod
    def _exterior_chain(document: IntervalDocument,
                        parent_pre: int) -> list[int]:
        """Pre ids of the root-to-``parent_pre`` chain, root first."""
        chain: list[int] = []
        parent = document.parent
        pre = parent_pre
        while pre >= 0:
            chain.append(pre)
            pre = parent[pre]
        chain.reverse()
        return chain

    # -- incremental maintenance -------------------------------------------------

    def apply_insert(self, document: IntervalDocument,
                     insert_pre: int, count: int) -> None:
        """Account for ``count`` nodes just spliced in at ``insert_pre``
        (call after the interval store relabelled)."""
        stop = insert_pre + count
        chain = self._exterior_chain(document, document.parent[insert_pre])
        self._accumulate(document, insert_pre, stop, chain, sign=+1)
        self._refragment(document, insert_pre, stop, chain, sign=+1)
        self.node_count += count
        self.generation += 1

    def apply_delete(self, document: IntervalDocument, pre: int) -> None:
        """Retract the subtree rooted at ``pre`` (call *before* the
        interval store splices it out, while labels are consistent)."""
        stop = document.end[pre] + 1
        chain = self._exterior_chain(document, document.parent[pre])
        self._accumulate(document, pre, stop, chain, sign=-1)
        self._refragment(document, pre, stop, chain, sign=-1)
        self.node_count -= stop - pre
        self.generation += 1

    def finalize_update(self) -> None:
        """Refresh ``max_depth`` from the exact depth histogram once the
        stores settled."""
        self.max_depth = max(self.depth_histogram, default=0)

    def clone(self) -> "DocumentStatistics":
        """An independent copy for a copy-on-write successor: every
        counter (each inner ``distinct_values`` Counter too) is copied
        at C speed, so deltas applied to the copy leave this one
        unchanged."""
        stats = copy.copy(self)
        stats.tag_counts = self.tag_counts.copy()
        stats.edge_counts = self.edge_counts.copy()
        stats.descendant_counts = self.descendant_counts.copy()
        stats.depth_histogram = self.depth_histogram.copy()
        stats.distinct_values = {tag: values.copy() for tag, values
                                 in self.distinct_values.items()}
        if self._fragmented is not None:
            stats._fragmented = self._fragmented.copy()
        return stats

    # -- serialization ----------------------------------------------------------

    @staticmethod
    def _columns(counter, arity: int) -> list[list]:
        """Flatten a (possibly tuple-keyed) Counter into ``arity + 1``
        parallel homogeneous columns — key parts first, counts last —
        so the snapshot encoding's C-speed array paths apply instead of
        a per-entry generic tuple/dict coding."""
        columns: list[list] = [[] for _ in range(arity + 1)]
        if arity == 1:
            for key, count in counter.items():
                columns[0].append(key)
                columns[1].append(count)
        else:
            for key, count in counter.items():
                for position in range(arity):
                    columns[position].append(key[position])
                columns[arity].append(count)
        return columns

    def to_snapshot(self) -> dict:
        """Plain-data state for the durability layer — every maintained
        counter plus the generation stamp (the planner's strategy memos
        are keyed by it, so restoring it keeps memo invalidation
        monotonic across restarts).  Tuple-keyed counters are flattened
        into parallel columns (see :meth:`_columns`): homogeneous str /
        int lists round-trip through the binary format's array fast
        paths at C speed."""
        values_flat: list[list] = [[], [], []]
        for tag, values in self.distinct_values.items():
            for value, count in values.items():
                values_flat[0].append(tag)
                values_flat[1].append(value)
                values_flat[2].append(count)
        return {
            "node_count": self.node_count,
            "tag_counts": self._columns(self.tag_counts, 1),
            "edge_counts": self._columns(self.edge_counts, 2),
            "descendant_counts": self._columns(self.descendant_counts, 2),
            "depth_histogram": self._columns(self.depth_histogram, 1),
            "distinct_values": values_flat,
            "max_depth": self.max_depth,
            "fragmented_value_tags": sorted(self.fragmented_value_tags),
            "fragmented_counts": (None if self._fragmented is None
                                  else self._columns(self._fragmented, 1)),
            "generation": self.generation,
        }

    @classmethod
    def from_snapshot(cls, state: dict) -> "DocumentStatistics":
        """Rebuild statistics verbatim — no accumulation pass."""
        stats = cls.__new__(cls)
        stats.node_count = state["node_count"]
        tags, counts = state["tag_counts"]
        stats.tag_counts = Counter(dict(zip(tags, counts)))
        parents, children, counts = state["edge_counts"]
        stats.edge_counts = Counter(
            dict(zip(zip(parents, children), counts)))
        ancestors, descendants, counts = state["descendant_counts"]
        stats.descendant_counts = Counter(
            dict(zip(zip(ancestors, descendants), counts)))
        depths, counts = state["depth_histogram"]
        stats.depth_histogram = Counter(dict(zip(depths, counts)))
        distinct: dict[str, Counter] = {}
        for tag, value, count in zip(*state["distinct_values"]):
            bucket = distinct.get(tag)
            if bucket is None:
                bucket = distinct[tag] = Counter()
            bucket[value] = count
        stats.distinct_values = distinct
        stats.max_depth = state["max_depth"]
        stats.fragmented_value_tags = set(state["fragmented_value_tags"])
        counts = state.get("fragmented_counts")  # rebuilt if absent
        stats._fragmented = (None if counts is None
                             else Counter(dict(zip(*counts))))
        stats.generation = state["generation"]
        return stats

    # -- estimators -------------------------------------------------------------

    def count(self, tag: str) -> int:
        """Exact number of nodes with ``tag`` (0 when absent)."""
        return self.tag_counts.get(tag, 0)

    def child_count(self, parent_tag: str, child_tag: str) -> int:
        """Exact number of (parent, child) edges with those tags."""
        return self.edge_counts.get((parent_tag, child_tag), 0)

    def descendant_count(self, ancestor_tag: str, descendant_tag: str) -> int:
        """Exact number of (ancestor, descendant) pairs with those tags."""
        return self.descendant_counts.get((ancestor_tag, descendant_tag), 0)

    def child_selectivity(self, parent_tag: str, child_tag: str) -> float:
        """Fraction of ``parent_tag`` nodes that have a ``child_tag``
        child edge (capped at 1.0 — an estimator, not a count)."""
        parents = self.count(parent_tag)
        if parents == 0:
            return 0.0
        return min(1.0, self.child_count(parent_tag, child_tag) / parents)

    def value_selectivity(self, tag: str,
                          value: Optional[str] = None) -> float:
        """Estimated fraction of ``tag`` nodes matching an equality
        predicate, under the uniform-distinct-values assumption."""
        distinct = len(self.distinct_values.get(tag, ()))
        if distinct == 0:
            return 0.0
        return 1.0 / distinct

    def average_fanout(self) -> float:
        """Mean number of children per element node."""
        elements = sum(count for tag, count in self.tag_counts.items()
                       if not tag.startswith(("@", "#", "?")))
        if elements == 0:
            return 0.0
        edges = sum(self.edge_counts.values())
        return edges / elements

    def summary(self) -> dict[str, object]:
        """A compact dictionary for EXPLAIN output and benchmark rows."""
        return {
            "nodes": self.node_count,
            "distinct_tags": len(self.tag_counts),
            "max_depth": self.max_depth,
            "average_fanout": round(self.average_fanout(), 3),
        }

    def comparable_state(self) -> dict[str, object]:
        """Every exactly-maintained field, for the debug cross-check."""
        return {
            "node_count": self.node_count,
            "tag_counts": dict(self.tag_counts),
            "edge_counts": dict(self.edge_counts),
            "descendant_counts": dict(self.descendant_counts),
            "depth_histogram": dict(self.depth_histogram),
            "distinct_values": {tag: dict(values) for tag, values
                                in self.distinct_values.items()},
            "max_depth": self.max_depth,
            "fragmented_value_tags": set(self.fragmented_value_tags),
        }
