"""Shared infrastructure for physical operators.

:class:`MatchRuntime` bundles everything a physical strategy needs for one
document: the succinct store, the interval store (same pre-order
numbering), the tag index, the page manager it charges I/O to, and the
residual-predicate checker (a callback into the reference evaluator, set
up by the engine which owns the model tree).

:class:`OperatorStats` collects the per-run metrics the benchmarks report
alongside wall-clock time and page I/O: nodes visited, elements scanned
from posting lists, intermediate-result sizes, join count.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import ExecutionError
from repro.storage.columns import ColumnarView
from repro.storage.interval import IntervalDocument
from repro.storage.pages import PageManager
from repro.storage.succinct import SuccinctDocument
from repro.storage.tagindex import TagIndex
from repro.algebra.operators import compare_values
from repro.algebra.pattern_graph import PatternGraph, PatternVertex

__all__ = ["OperatorStats", "MatchRuntime", "single_output_vertex"]


@dataclass
class OperatorStats:
    """Metrics one strategy run accumulates.

    ``detail`` carries free-form per-operator counters (per-tag posting
    sizes, partition counts, B+ tree probes...) that each physical
    strategy notes via :meth:`note`; EXPLAIN ANALYZE surfaces them next
    to the estimate-vs-actual table.  The fixed counters keep their
    exact seed semantics (``snapshot`` is unchanged).
    """

    nodes_visited: int = 0          # storage nodes touched by navigation
    postings_scanned: int = 0       # posting-list entries consumed
    intermediate_results: int = 0   # entries in intermediate lists
    structural_joins: int = 0       # binary structural joins performed
    solutions: int = 0              # final output size
    detail: dict = field(default_factory=dict)  # per-strategy extras

    def note(self, key: str, amount: int = 1) -> None:
        """Accumulate one named per-operator detail counter."""
        self.detail[key] = self.detail.get(key, 0) + amount

    def merge(self, other: "OperatorStats") -> None:
        self.nodes_visited += other.nodes_visited
        self.postings_scanned += other.postings_scanned
        self.intermediate_results += other.intermediate_results
        self.structural_joins += other.structural_joins
        for key, value in other.detail.items():
            self.detail[key] = self.detail.get(key, 0) + value

    def snapshot(self) -> dict[str, int]:
        return {
            "nodes_visited": self.nodes_visited,
            "postings_scanned": self.postings_scanned,
            "intermediate_results": self.intermediate_results,
            "structural_joins": self.structural_joins,
            "solutions": self.solutions,
        }


class MatchRuntime:
    """Per-document runtime shared by the physical strategies."""

    def __init__(self, succinct: SuccinctDocument,
                 interval: IntervalDocument,
                 tag_index: TagIndex,
                 pages: Optional[PageManager] = None,
                 residual_check: Optional[
                     Callable[[PatternVertex, int], bool]] = None,
                 value_index=None, numeric_index=None, statistics=None):
        self.succinct = succinct
        self.interval = interval
        self.tag_index = tag_index
        self.pages = pages
        self._residual_check = residual_check
        self.value_index = value_index      # string content -> owner
        self.numeric_index = numeric_index  # float(content) -> owner
        self.statistics = statistics        # DocumentStatistics or None
        # Lazily extracted label columns for the vectorized execution
        # path; invalidated (and rebuilt on next use) whenever an
        # in-place structural update goes through refresh_segments().
        self._columns: Optional[ColumnarView] = None
        self._columns_lock = threading.Lock()
        self.column_builds = 0
        if pages is not None:
            # Segments are per document: another document's update must
            # not resize this one's extents.
            self.structure_segment = pages.segment(
                f"succinct:structure:{succinct.uri}")
            self.dom_segment = pages.segment(f"dom:records:{succinct.uri}")
            self.refresh_segments()
        else:
            self.structure_segment = None
            self.dom_segment = None

    def refresh_segments(self) -> None:
        """Re-derive segment extents from the current store sizes.

        Called after an in-place structural update so I/O charging keeps
        tracking the stores without rebuilding the runtime.  Both extent
        updates happen under the page manager's I/O lock so a concurrent
        ``sequential_scan`` never observes one segment resized and the
        other not (the engine's RW lock already excludes readers during
        updates; this keeps the runtime safe standalone too).
        """
        self.invalidate_columns()
        if self.pages is None:
            return
        with self.pages.io_lock:
            structure = self.succinct.size_bytes()
            self.structure_segment.length = (
                structure["structure"] + structure["tags"]
                + structure["kinds"])
            # The navigational (commercial stand-in) strategy reads
            # pointer-based DOM records, ~32 bytes per node.
            self.dom_segment.length = 32 * self.succinct.node_count

    # -- columnar view ----------------------------------------------------------

    def columnar_view(self) -> ColumnarView:
        """The shared label-column view of this document state.

        Built on first use (an O(1) wrapper around the interval store's
        columns and the tag index's arrays) and reused by every
        subsequent columnar execution; concurrent readers racing on a
        cold view build it once under the lock.
        Under MVCC each :class:`DocumentVersion` owns its runtime, so
        a view is a pure function of that version's frozen labels and
        is shared by exactly the readers pinned on it; updates build a
        new version (with a cold view) rather than patching this one.
        """
        view = self._columns
        if view is not None:
            return view
        with self._columns_lock:
            if self._columns is None:
                self._columns = ColumnarView(self.interval, self.tag_index)
                self.column_builds += 1
            return self._columns

    def invalidate_columns(self) -> None:
        """Drop the cached column view (labels changed in place)."""
        with self._columns_lock:
            self._columns = None

    # -- vertex predicate evaluation -------------------------------------------

    def vertex_accepts(self, vertex: PatternVertex, preorder: int,
                       check_value: bool = True) -> bool:
        """Full per-node check of a pattern vertex (tag, value
        constraints, residuals) against the stored node ``preorder``."""
        if not vertex.matches_tag(self.succinct.tag(preorder)):
            return False
        if check_value and not self.value_ok(vertex, preorder):
            return False
        return self.residual_ok(vertex, preorder)

    def value_ok(self, vertex: PatternVertex, preorder: int) -> bool:
        for op, literal in vertex.value_constraints:
            if not compare_values(op, self.succinct.string_value(preorder),
                                  literal):
                return False
        return True

    def residual_ok(self, vertex: PatternVertex, preorder: int) -> bool:
        if not vertex.residual:
            return True
        if self._residual_check is None:
            raise ExecutionError(
                "pattern has residual predicates but the runtime has no "
                "residual checker (positional predicates need the engine)")
        return self._residual_check(vertex, preorder)

    # -- structural helpers --------------------------------------------------------

    def pre_end(self, preorder: int) -> tuple[int, int]:
        """(pre, end) interval of the stored node."""
        return preorder, self.interval.end[preorder]

    # -- I/O charging -----------------------------------------------------------------

    def charge_structure_scan(self) -> None:
        """One sequential read of the structure segment (NoK's cost)."""
        if self.pages is not None and self.structure_segment is not None:
            self.pages.sequential_scan(self.structure_segment)

    def charge_postings(self, tag: str) -> list:
        """Fetch a posting list, paying the sequential read."""
        return self.tag_index.postings(tag, charge=self.pages is not None)

    def charge_random_node(self, preorder: int) -> None:
        """One random access to a node record (navigational traversal /
        index verification cost): a 32-byte DOM-style record."""
        if self.pages is not None and self.dom_segment is not None:
            self.dom_segment.touch(preorder * 32, 32)


def single_output_vertex(pattern: PatternGraph) -> PatternVertex:
    """The pattern's unique output vertex; joins-based strategies and the
    planner currently require exactly one."""
    outputs = pattern.output_vertices()
    if len(outputs) != 1:
        raise ExecutionError(
            f"strategy requires exactly one output vertex, "
            f"pattern has {len(outputs)}")
    return outputs[0]
