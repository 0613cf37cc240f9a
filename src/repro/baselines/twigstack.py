"""TwigStack — the holistic twig join (Bruno/Koudas/Srivastava, SIGMOD'02).

Evaluates a branching pattern over per-vertex posting streams.  The
``getNext`` oracle only lets a node onto a stack when it (provably, for
``//`` edges) participates in a complete twig match, which is what bounds
the intermediate results — the classic advantage over cascades of binary
joins, reproduced in experiment E3.

As in the literature, parent-child edges make the stack phase a *filter*
rather than an exact evaluator, so a merge/refine phase follows: we run
the bottom-up/top-down semi-join reduction over the (already tiny) pushed
candidate lists.  ``stats.intermediate_results`` counts the pushed nodes —
the quantity the paper's comparison cares about.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ExecutionError
from repro.storage.interval import IntervalNode
from repro.algebra.pattern_graph import (
    REL_DESCENDANT,
    REL_SIBLING,
    PatternGraph,
)
from repro.physical.base import (
    MatchRuntime,
    OperatorStats,
    single_output_vertex,
)
from repro.baselines.structural_join import BinaryJoinMatcher, StackTreeJoin

__all__ = ["TwigStackJoin"]


class TwigStackJoin:
    """Holistic evaluation of a twig pattern (single output vertex)."""

    def __init__(self, pattern: PatternGraph):
        self.pattern = pattern
        self.stats = OperatorStats()
        if any(edge.relation == REL_SIBLING for edge in pattern.edges):
            raise ExecutionError(
                "TwigStack stacks encode containment; following-sibling "
                "edges need the partitioned strategy")
        root_edges = pattern.children_of(pattern.root)
        if len(root_edges) != 1:
            raise ExecutionError(
                "TwigStack needs a single twig root under the context")
        self.twig_root = root_edges[0].target
        self.first_relation = root_edges[0].relation
        self._children = {vid: [e.target for e in pattern.children_of(vid)]
                          for vid in pattern.vertices}
        self._parent = {}
        for edge in pattern.edges:
            self._parent[edge.target] = edge.source

    # -- public -------------------------------------------------------------------

    def run(self, runtime: MatchRuntime, root: int = 0) -> list[int]:
        """Distinct pre-order ids matching the output vertex."""
        output_vertex = single_output_vertex(self.pattern)
        streams, positions = self._open_streams(runtime, root)
        stacks: dict[int, list[IntervalNode]] = {
            vid: [] for vid in streams}
        pushed: dict[int, dict[int, IntervalNode]] = {
            vid: {} for vid in streams}

        def head(q: int) -> Optional[IntervalNode]:
            if positions[q] < len(streams[q]):
                return streams[q][positions[q]]
            return None

        def advance(q: int) -> None:
            positions[q] += 1
            self.stats.postings_scanned += 1

        def get_next(q: int) -> Optional[int]:
            """The getNext oracle.  ``None`` means the subtree at ``q``
            can produce no further stack pushes (its streams, or every
            child's, are exhausted); exhausted child subtrees are skipped
            so sibling branches keep draining — their leaves may still
            pair with already-pushed ancestors.
            """
            children = self._children[q]
            if not children:
                return q if head(q) is not None else None
            streaming: list[int] = []
            for child in children:
                result = get_next(child)
                if result is None:
                    continue
                if result != child:
                    return result
                streaming.append(child)
            if not streaming:
                return None
            n_min = min(streaming, key=lambda c: head(c).pre)
            n_max = max(streaming, key=lambda c: head(c).pre)
            while head(q) is not None and head(q).end < head(n_max).pre:
                advance(q)
            if head(q) is not None and head(q).pre < head(n_min).pre:
                return q
            return n_min

        while True:
            q = get_next(self.twig_root)
            if q is None or head(q) is None:
                break
            record = head(q)
            parent = self._parent.get(q)
            # Clean the parent stack, then our own, against this node.
            if parent is not None and parent in stacks:
                self._clean(stacks[parent], record.pre)
            self._clean(stacks[q], record.pre)
            anchored_ok = (parent is None or parent not in stacks
                           or bool(stacks[parent]))
            if q == self.twig_root or anchored_ok:
                stacks[q].append(record)
                pushed[q][record.pre] = record
                self.stats.intermediate_results += 1
                if not self._children[q]:
                    stacks[q].pop()  # leaves never accumulate
            advance(q)

        candidates = {vid: sorted(nodes.values(),
                                  key=lambda record: record.pre)
                      for vid, nodes in pushed.items()}
        result = self._refine(runtime, candidates, root,
                              output_vertex.vertex_id)
        self.stats.solutions = len(result)
        return result

    @staticmethod
    def _clean(stack: list[IntervalNode], pre: int) -> None:
        while stack and stack[-1].end < pre:
            stack.pop()

    # -- streams --------------------------------------------------------------------

    def _open_streams(self, runtime: MatchRuntime, root: int):
        pattern = self.pattern
        root_record = runtime.interval.node(root)
        streams: dict[int, list[IntervalNode]] = {}
        positions: dict[int, int] = {}
        for vertex_id, vertex in pattern.vertices.items():
            if vertex_id == pattern.root:
                continue
            postings = BinaryJoinMatcher._postings_for(runtime, vertex)
            kept = []
            anchor_child = (vertex_id == self.twig_root
                            and self.first_relation != REL_DESCENDANT)
            for record in postings:
                if record.pre <= root_record.pre \
                        or record.pre > root_record.end:
                    continue
                if anchor_child and record.parent != root_record.pre:
                    continue
                if vertex.value_constraints \
                        and not runtime.value_ok(vertex, record.pre):
                    continue
                if vertex.residual \
                        and not runtime.residual_ok(vertex, record.pre):
                    continue
                kept.append(record)
            streams[vertex_id] = kept
            positions[vertex_id] = 0
            self.stats.note(f"stream.{vertex.label_text()}", len(kept))
        return streams, positions

    # -- refine (merge) ------------------------------------------------------------------

    def _refine(self, runtime: MatchRuntime,
                candidates: dict[int, list[IntervalNode]], root: int,
                output_id: int) -> list[int]:
        """Exact twig semantics over the pushed candidates: bottom-up and
        top-down semi-joins verifying every edge (incl. parent-child)."""
        pattern = self.pattern
        candidates = dict(candidates)
        candidates[pattern.root] = [runtime.interval.node(root)]

        order: list[int] = []
        stack = [pattern.root]
        while stack:
            vertex_id = stack.pop()
            order.append(vertex_id)
            stack.extend(self._children.get(vertex_id, ()))
        for vertex_id in reversed(order):
            for child in self._children.get(vertex_id, ()):
                edge = pattern.parent_edge(child)
                join = StackTreeJoin(edge.relation, self.stats)
                candidates[vertex_id] = join.ancestors(
                    candidates[vertex_id], candidates[child])
        for vertex_id in order:
            edge = pattern.parent_edge(vertex_id)
            if edge is None:
                continue
            join = StackTreeJoin(edge.relation, self.stats)
            candidates[vertex_id] = join.descendants(
                candidates[edge.source], candidates[vertex_id])
        return [record.pre for record in candidates[output_id]]
