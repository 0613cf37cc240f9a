"""NoK partitioning of general pattern graphs (Section 4.2).

    "Given a general path expression, we first partition it into
    interconnected NoK expressions, to which we apply the more efficient
    navigational pattern matching algorithm.  Then, we join the results
    of the NoK pattern matching based on their structural relationships,
    just as in the join-based approach."

:func:`partition_pattern` cuts the pattern graph at every non-local edge
(``//`` and ``~``), yielding a tree of :class:`Partition` objects — each a
pure child/attribute (NoK) subpattern.  :class:`PartitionedMatcher`
evaluates the root partition anchored at the query context and every other
partition unanchored.  The partitions' matchers are one NoK automaton over
ONE pre-order scan (:func:`repro.physical.nok.run_shared_scan`, the scan
:meth:`NoKMatcher.run` makes with a single matcher), which counts each
partition's candidate work exactly; the partial results are then combined
with interval-based structural joins — counting exactly how many joins
the partitioning saved versus one-join-per-edge (experiment E8).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

from repro.algebra.pattern_graph import (
    PatternEdge,
    PatternGraph,
)
from repro.physical.base import (
    MatchRuntime,
    OperatorStats,
    single_output_vertex,
)
from repro.physical.nok import NoKMatcher, run_shared_scan

__all__ = ["Partition", "partition_pattern", "PartitionedMatcher"]


@dataclass
class Partition:
    """One NoK unit: a subpattern plus the mapping back to the original
    vertex ids."""

    index: int
    pattern: PatternGraph
    # original vertex id -> partition-local vertex id
    vertex_map: dict[int, int]
    # the cut edge connecting this partition's root to its parent
    # partition (None for the root partition)
    cut_edge: Optional[PatternEdge] = None
    parent_index: Optional[int] = None


def partition_pattern(pattern: PatternGraph) -> list[Partition]:
    """Cut at non-local edges; partitions come back in DFS order (root
    partition first), each with local vertices relabelled from 0."""
    partitions: list[Partition] = []
    # Assign each vertex to a partition: roots of partitions are the
    # pattern root plus every target of a non-local edge.
    partition_roots = {pattern.root}
    for edge in pattern.non_local_edges():
        partition_roots.add(edge.target)

    def build(root_vertex: int, cut_edge: Optional[PatternEdge],
              parent_index: Optional[int]) -> None:
        local = PatternGraph()
        vertex_map: dict[int, int] = {}
        pending_cuts: list[PatternEdge] = []

        def copy_vertex(original_id: int):
            original = pattern.vertices[original_id]
            vertex = local.add_vertex(
                original.labels, kind=original.kind,
                output=original.output)
            vertex.value_constraints = original.value_constraints
            vertex.residual = original.residual
            vertex_map[original_id] = vertex.vertex_id
            return vertex

        copy_vertex(root_vertex)
        stack = [root_vertex]
        while stack:
            current = stack.pop()
            for edge in pattern.children_of(current):
                if edge.target in partition_roots:
                    pending_cuts.append(edge)
                    continue
                copy_vertex(edge.target)
                local.add_edge(vertex_map[current],
                               vertex_map[edge.target], edge.relation)
                stack.append(edge.target)
        this_index = len(partitions)
        partitions.append(Partition(index=this_index, pattern=local,
                                    vertex_map=vertex_map,
                                    cut_edge=cut_edge,
                                    parent_index=parent_index))
        for edge in pending_cuts:
            build(edge.target, edge, this_index)

    build(pattern.root, None, None)
    return partitions


class PartitionedMatcher:
    """NoK per partition + structural joins across cut edges."""

    def __init__(self, pattern: PatternGraph):
        self.pattern = pattern
        self.partitions = partition_pattern(pattern)
        self.stats = OperatorStats()
        # Vertices whose bindings must survive into the joins: outputs,
        # plus the source vertices of cut edges.
        interesting = {v.vertex_id for v in pattern.output_vertices()}
        for partition in self.partitions:
            if partition.cut_edge is not None:
                interesting.add(partition.cut_edge.source)
        for partition in self.partitions:
            for original_id, local_id in partition.vertex_map.items():
                if original_id in interesting:
                    partition.pattern.vertices[local_id].output = True
            if partition.cut_edge is not None:
                # A child partition's root binding is the join key on the
                # cut edge, so it must survive into the tuples.
                partition.pattern.vertices[
                    partition.pattern.root].output = True
        # Per-partition reverse vertex maps and join-key arrays are
        # derived once and reused: _join re-sorts its right side only
        # when handed a different tuple list than last time.
        self._root_original: dict[int, int] = {}
        for partition in self.partitions:
            reverse = {local: original
                       for original, local in partition.vertex_map.items()}
            self._root_original[partition.index] = \
                reverse[partition.pattern.root]
        self._join_inputs: dict[int, tuple] = {}

    def run(self, runtime: MatchRuntime, root: int = 0) -> list[int]:
        """Distinct pre-order ids matching the (single) output vertex."""
        output_vertex = single_output_vertex(self.pattern)
        tuples = self.partition_tuples(runtime, root)
        results = sorted({binding[output_vertex.vertex_id]
                          for binding in tuples
                          if output_vertex.vertex_id in binding})
        self.stats.solutions = len(results)
        return results

    def partition_tuples(self, runtime: MatchRuntime,
                         root: int = 0) -> list[dict]:
        """Joined binding tuples over all partitions: the partitions'
        matchers are one NoK automaton over ONE pre-order scan (the
        paper's single pass), then the partial results join across cut
        edges."""
        matchers = [NoKMatcher(partition.pattern,
                               anchored=partition.cut_edge is None)
                    for partition in self.partitions]
        self.stats.note("partitions", len(self.partitions))
        self.stats.note("nok.shared_scans")
        binding_lists = run_shared_scan(runtime, matchers, root=root)
        # One scan: count its node visits once, candidate work per
        # matcher.
        self.stats.nodes_visited += matchers[0].stats.nodes_visited
        for matcher in matchers:
            self.stats.intermediate_results += \
                matcher.stats.intermediate_results

        per_partition: list[list[dict]] = []
        for partition, bindings in zip(self.partitions, binding_lists):
            reverse = {local: original
                       for original, local in partition.vertex_map.items()}
            per_partition.append(
                [{reverse[local]: node for local, node in binding.items()}
                 for binding in bindings])

        tuples = per_partition[0]
        for partition, child_tuples in zip(self.partitions[1:],
                                           per_partition[1:]):
            tuples = self._join(runtime, tuples, child_tuples, partition)
            self.stats.structural_joins += 1
        return tuples

    def _join(self, runtime: MatchRuntime, left: list[dict],
              right: list[dict], partition: Partition) -> list[dict]:
        """Join the accumulated tuples with a partition's tuples across
        its cut edge (sort + interval merge, stack-tree style)."""
        edge = partition.cut_edge
        root_original = self._root_original[partition.index]
        cached = self._join_inputs.get(partition.index)
        if cached is not None and cached[0] is right:
            _, right_sorted, right_keys = cached
        else:
            right_sorted = sorted(right,
                                  key=lambda t: t.get(root_original, -1))
            right_keys = [t.get(root_original, -1) for t in right_sorted]
            self._join_inputs[partition.index] = (right, right_sorted,
                                                  right_keys)
        joined: list[dict] = []
        for binding in left:
            anchor = binding.get(edge.source)
            if anchor is None:
                continue
            if edge.relation == "~":
                candidates = self._sibling_candidates(
                    runtime, anchor, right_sorted, right_keys,
                    root_original)
            else:  # '//'
                pre, end = runtime.pre_end(anchor)
                low = bisect_right(right_keys, pre)
                high = bisect_right(right_keys, end)
                candidates = right_sorted[low:high]
            for other in candidates:
                joined.append({**binding, **other})
        self.stats.intermediate_results += len(joined)
        return joined

    def _sibling_candidates(self, runtime: MatchRuntime, anchor: int,
                            right_sorted: list[dict], right_keys: list[int],
                            root_original: int) -> list[dict]:
        parents = runtime.interval.parent
        parent = parents[anchor]
        if parent < 0:
            return []
        low = bisect_right(right_keys, anchor)
        high = bisect_right(right_keys, runtime.interval.end[parent])
        return [t for t in right_sorted[low:high]
                if parents[t[root_original]] == parent]

    def join_count(self) -> int:
        """Structural joins a partitioned plan performs (== cut edges) —
        versus one per edge for the join-per-edge baseline."""
        return len(self.partitions) - 1
