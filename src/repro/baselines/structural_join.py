"""Stack-tree structural join (Al-Khalifa et al., ICDE 2002).

The primitive of the join-based approach: given two document-ordered lists
of nodes, produce the pairs (or just the descendants/ancestors) satisfying
an ancestor-descendant / parent-child / following-sibling relationship, in
one merge pass with a stack of nested ancestors.

Also provides :class:`BinaryJoinMatcher`: the "one structural join per
pattern edge" evaluation of a whole pattern graph (the baseline the paper
says "could pose optimization difficulties" because every structural
constraint pays a join) — a bottom-up semi-join pass followed by a
top-down pass, counting every intermediate list.
"""

from __future__ import annotations

from typing import Optional

from repro.storage.interval import IntervalNode
from repro.algebra.pattern_graph import (
    REL_ATTRIBUTE,
    REL_CHILD,
    REL_DESCENDANT,
    REL_SIBLING,
    PatternGraph,
)
from repro.physical.base import (
    MatchRuntime,
    OperatorStats,
    single_output_vertex,
)

__all__ = ["StackTreeJoin", "BinaryJoinMatcher"]


class StackTreeJoin:
    """One binary structural join between two posting lists."""

    def __init__(self, relation: str = REL_DESCENDANT,
                 stats: Optional[OperatorStats] = None):
        if relation not in (REL_CHILD, REL_DESCENDANT, REL_ATTRIBUTE,
                            REL_SIBLING):
            raise ValueError(f"unknown relation {relation!r}")
        self.relation = relation
        self.stats = stats if stats is not None else OperatorStats()

    # -- the merge ----------------------------------------------------------------

    def pairs(self, ancestors: list[IntervalNode],
              descendants: list[IntervalNode]
              ) -> list[tuple[IntervalNode, IntervalNode]]:
        """All matching (left, right) pairs, right side in document
        order."""
        self.stats.structural_joins += 1
        self.stats.note(f"join.{self.relation}")
        if self.relation == REL_SIBLING:
            return self._sibling_pairs(ancestors, descendants)
        output: list[tuple[IntervalNode, IntervalNode]] = []
        stack: list[IntervalNode] = []
        a_index = 0
        for descendant in descendants:
            self.stats.postings_scanned += 1
            while (a_index < len(ancestors)
                   and ancestors[a_index].pre < descendant.pre):
                candidate = ancestors[a_index]
                self.stats.postings_scanned += 1
                while stack and stack[-1].end < candidate.pre:
                    stack.pop()
                stack.append(candidate)
                a_index += 1
            while stack and stack[-1].end < descendant.pre:
                stack.pop()
            for ancestor in stack:
                if self._matches(ancestor, descendant):
                    output.append((ancestor, descendant))
        self.stats.intermediate_results += len(output)
        return output

    def _matches(self, ancestor: IntervalNode,
                 descendant: IntervalNode) -> bool:
        if not ancestor.contains(descendant):
            return False
        if self.relation == REL_DESCENDANT:
            return True
        # parent-child (and element-attribute, which is also one level).
        return ancestor.level + 1 == descendant.level \
            and descendant.parent == ancestor.pre

    def _sibling_pairs(self, lefts: list[IntervalNode],
                       rights: list[IntervalNode]
                       ) -> list[tuple[IntervalNode, IntervalNode]]:
        """Following-sibling join: group by parent, then order merge."""
        by_parent: dict[int, list[IntervalNode]] = {}
        for right in rights:
            self.stats.postings_scanned += 1
            by_parent.setdefault(right.parent, []).append(right)
        output: list[tuple[IntervalNode, IntervalNode]] = []
        for left in lefts:
            self.stats.postings_scanned += 1
            for right in by_parent.get(left.parent, ()):
                if right.pre > left.pre:
                    output.append((left, right))
        self.stats.intermediate_results += len(output)
        return output

    # -- projections --------------------------------------------------------------

    def descendants(self, ancestors: list[IntervalNode],
                    descendants: list[IntervalNode]) -> list[IntervalNode]:
        """Distinct right-side matches, in document order."""
        seen: set[int] = set()
        output = []
        for _, descendant in self.pairs(ancestors, descendants):
            if descendant.pre not in seen:
                seen.add(descendant.pre)
                output.append(descendant)
        return output

    def ancestors(self, ancestors: list[IntervalNode],
                  descendants: list[IntervalNode]) -> list[IntervalNode]:
        """Distinct left-side matches, in document order."""
        seen: set[int] = set()
        output = []
        for ancestor, _ in self.pairs(ancestors, descendants):
            if ancestor.pre not in seen:
                seen.add(ancestor.pre)
                output.append(ancestor)
        output.sort(key=lambda record: record.pre)
        return output


class BinaryJoinMatcher:
    """Evaluate a whole pattern graph with one structural join per edge.

    Two semi-join passes (bottom-up, then top-down) reduce each vertex's
    candidate list to the nodes participating in at least one full match —
    for a single output vertex this computes exactly the pattern result,
    while paying the join-per-edge cost the paper's Section 4.1 critiques.
    """

    def __init__(self, pattern: PatternGraph, reorder: bool = True):
        self.pattern = pattern
        self.stats = OperatorStats()
        # Structural join order selection (Wu/Patel/Jagadish, ICDE 2003,
        # the paper's reference [5]): semi-join against the smallest
        # candidate lists first so later joins see reduced inputs.
        self.reorder = reorder

    def run(self, runtime: MatchRuntime, root: int = 0) -> list[int]:
        """Returns the distinct pre-order ids matching the output vertex."""
        pattern = self.pattern
        output_vertex = single_output_vertex(pattern)
        candidates = self._initial_candidates(runtime, root)

        # Bottom-up: a vertex keeps only nodes with a match per child edge.
        for vertex_id in self._bottom_up_order():
            edges = pattern.children_of(vertex_id)
            if self.reorder:
                edges = sorted(edges,
                               key=lambda e: len(candidates[e.target]))
            for edge in edges:
                join = StackTreeJoin(edge.relation, self.stats)
                kept = join.ancestors(candidates[vertex_id],
                                      candidates[edge.target])
                candidates[vertex_id] = kept
        # Top-down: a vertex keeps only nodes under a surviving parent.
        for vertex_id in self._top_down_order():
            edge = pattern.parent_edge(vertex_id)
            if edge is None:
                continue
            join = StackTreeJoin(edge.relation, self.stats)
            candidates[vertex_id] = join.descendants(
                candidates[edge.source], candidates[vertex_id])

        result = [record.pre for record in candidates[output_vertex.vertex_id]]
        self.stats.solutions = len(result)
        return result

    def _initial_candidates(self, runtime: MatchRuntime,
                            root: int) -> dict[int, list[IntervalNode]]:
        pattern = self.pattern
        root_record = runtime.interval.node(root)
        candidates: dict[int, list[IntervalNode]] = {}
        for vertex_id, vertex in pattern.vertices.items():
            if vertex_id == pattern.root:
                candidates[vertex_id] = [root_record]
                continue
            kept = []
            for record in self._postings_for(runtime, vertex):
                self.stats.postings_scanned += 1
                if record.pre < root_record.pre \
                        or record.pre > root_record.end:
                    continue
                if vertex.value_constraints \
                        and not runtime.value_ok(vertex, record.pre):
                    continue
                if vertex.residual \
                        and not runtime.residual_ok(vertex, record.pre):
                    continue
                kept.append(record)
            candidates[vertex_id] = kept
            self.stats.intermediate_results += len(kept)
            self.stats.note(f"candidates.{vertex.label_text()}",
                            len(kept))
        return candidates

    @staticmethod
    def _postings_for(runtime: MatchRuntime, vertex) -> list[IntervalNode]:
        from repro.storage.succinct import KIND_ATTRIBUTE

        if vertex.labels is None:
            if vertex.kind == "text":
                return runtime.charge_postings("#text")
            # Wildcard: the union of all postings (a full scan).
            everything = runtime.interval.nodes
            if vertex.kind == "attribute":
                # @*: every attribute record.
                return [r for r in everything
                        if r.kind == KIND_ATTRIBUTE]
            if vertex.kind == "element":
                return [r for r in everything
                        if not r.tag.startswith(("@", "#", "?"))]
            # node(): child/descendant axes never reach attributes.
            return [r for r in everything if r.kind != KIND_ATTRIBUTE]
        tags = (["@" + label for label in vertex.labels]
                if vertex.kind == "attribute" else sorted(vertex.labels))
        postings: list[IntervalNode] = []
        for tag in tags:
            postings.extend(runtime.charge_postings(tag))
        if len(tags) > 1:
            postings.sort(key=lambda record: record.pre)
        return postings

    def _bottom_up_order(self) -> list[int]:
        order: list[int] = []
        stack = [self.pattern.root]
        while stack:
            vertex_id = stack.pop()
            order.append(vertex_id)
            for edge in self.pattern.children_of(vertex_id):
                stack.append(edge.target)
        order.reverse()
        return order

    def _top_down_order(self) -> list[int]:
        return list(reversed(self._bottom_up_order()))
