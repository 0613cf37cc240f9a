"""Node-at-a-time navigational evaluation — the commercial-system stand-in.

The paper's related work: "Navigational approaches traverse the tree
structure and test whether a tree node satisfies the constraints specified
by the path expression", and its experiments compare against "a
state-of-the-art commercial native XML management system" of exactly this
design.  This matcher walks the label columns (first child = the next pre
id, next sibling = one past a subtree's ``end``, subtree = the pre-id
window up to ``end``), one node at a time,
with no indexes and no scan sharing — so its cost grows with the tree
region explored, which experiment E4 shows scaling against NoK and the
join strategies.
"""

from __future__ import annotations

from typing import Iterator

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
from repro.storage.succinct import KIND_ATTRIBUTE

__all__ = ["NavigationalMatcher"]


class NavigationalMatcher:
    """Recursive node-at-a-time pattern evaluation."""

    def __init__(self, pattern: PatternGraph):
        self.pattern = pattern
        self.stats = OperatorStats()

    def run(self, runtime: MatchRuntime, root: int = 0) -> list[int]:
        """Distinct pre-order ids matching the output vertex."""
        output_vertex = single_output_vertex(self.pattern)
        results: set[int] = set()
        bindings_enumerated = 0
        for binding in self._match(runtime, self.pattern.root, root):
            bindings_enumerated += 1
            node = binding.get(output_vertex.vertex_id)
            if node is not None:
                results.add(node)
        output = sorted(results)
        self.stats.note("nav.bindings", bindings_enumerated)
        self.stats.solutions = len(output)
        return output

    def _match(self, runtime: MatchRuntime, vertex_id: int,
               node: int) -> Iterator[dict]:
        vertex = self.pattern.vertices[vertex_id]
        self.stats.nodes_visited += 1
        runtime.charge_random_node(node)
        is_root = vertex_id == self.pattern.root
        if not is_root and not vertex.matches_tag(
                runtime.interval.tags[node]):
            return
        if vertex.value_constraints and not runtime.value_ok(vertex, node):
            return
        if vertex.residual and not runtime.residual_ok(vertex, node):
            return
        partials: list[dict] = [{}]
        for edge in self.pattern.children_of(vertex_id):
            child_bindings: list[dict] = []
            target_kind = self.pattern.vertices[edge.target].kind
            for candidate in self._candidates(runtime, node, edge.relation,
                                              target_kind):
                child_bindings.extend(
                    self._match(runtime, edge.target, candidate))
            if not child_bindings:
                return
            partials = [{**existing, **extra}
                        for existing in partials
                        for extra in child_bindings]
        for binding in partials:
            if vertex.output:
                binding = dict(binding)
                binding[vertex_id] = node
            yield binding

    def _candidates(self, runtime: MatchRuntime, node: int,
                    relation: str, target_kind: str = "any"
                    ) -> Iterator[int]:
        interval = runtime.interval
        end, kinds = interval.end, interval.kinds
        if relation == REL_CHILD:
            for child in interval.child_pres(node):
                self.stats.nodes_visited += 1
                runtime.charge_random_node(child)
                if kinds[child] != KIND_ATTRIBUTE:
                    yield child
        elif relation == REL_ATTRIBUTE:
            for child in interval.child_pres(node):
                if kinds[child] != KIND_ATTRIBUTE:
                    break
                yield child
        elif relation == REL_SIBLING:
            parent = interval.parent[node]
            last = end[parent] if parent >= 0 else node
            sibling = end[node] + 1
            while sibling <= last:
                self.stats.nodes_visited += 1
                runtime.charge_random_node(sibling)
                yield sibling
                sibling = end[sibling] + 1
        elif relation == REL_DESCENDANT:
            # descendant::node() excludes attributes; a '//@x' edge (kind
            # attribute) instead reaches exactly the attribute nodes.
            wants_attribute = target_kind == "attribute"
            for descendant in range(node + 1, end[node] + 1):
                self.stats.nodes_visited += 1
                runtime.charge_random_node(descendant)
                is_attribute = kinds[descendant] == KIND_ATTRIBUTE
                if is_attribute == wants_attribute:
                    yield descendant
