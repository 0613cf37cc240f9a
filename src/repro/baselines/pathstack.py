"""PathStack — the holistic path join (Bruno/Koudas/Srivastava, SIGMOD'02).

Evaluates a *linear* pattern (a chain q1/q2/.../qn of ancestor-descendant
or parent-child edges) over the per-tag posting streams in one merge pass
with one stack per pattern vertex, never producing an intermediate list
larger than the final result — the holistic answer to the binary-join
blow-up.

This implementation returns the distinct matches of the chain's output
vertex.  Parent-child edges are checked during stack linking (classic
PathStack handles them by post-filtering; checking at push time is
equivalent for path patterns and keeps the stacks minimal).
"""

from __future__ import annotations

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
from repro.baselines.structural_join import BinaryJoinMatcher

__all__ = ["PathStackJoin"]


class _StackEntry:
    __slots__ = ("record", "parent_index")

    def __init__(self, record: IntervalNode, parent_index: int):
        self.record = record
        self.parent_index = parent_index  # index into the previous stack


class PathStackJoin:
    """Holistic evaluation of a linear pattern."""

    def __init__(self, pattern: PatternGraph):
        self.pattern = pattern
        self.stats = OperatorStats()
        self._chain = self._linearise(pattern)

    @staticmethod
    def _linearise(pattern: PatternGraph) -> list:
        """The chain of (vertex, relation-from-previous); raises if the
        pattern branches (use TwigStack for twigs)."""
        chain = []
        vertex_id = pattern.root
        while True:
            edges = pattern.children_of(vertex_id)
            if not edges:
                break
            if len(edges) > 1:
                raise ExecutionError(
                    "PathStack evaluates linear paths only; the pattern "
                    "branches (use TwigStack)")
            edge = edges[0]
            if edge.relation == REL_SIBLING:
                raise ExecutionError(
                    "PathStack stacks encode containment; following-"
                    "sibling edges need the partitioned strategy")
            chain.append((edge.target, edge.relation))
            vertex_id = edge.target
        if not chain:
            raise ExecutionError("pattern has no steps")
        return chain

    def run(self, runtime: MatchRuntime, root: int = 0) -> list[int]:
        """Distinct pre-order ids of the output vertex's matches."""
        pattern = self.pattern
        output_vertex = single_output_vertex(pattern)
        output_position = next(
            index for index, (vertex_id, _) in enumerate(self._chain)
            if vertex_id == output_vertex.vertex_id)

        streams = self._open_streams(runtime, root)
        for (vertex_id, _), stream in zip(self._chain, streams):
            self.stats.note(
                f"stream.{pattern.vertices[vertex_id].label_text()}",
                len(stream))
        positions = [0] * len(streams)
        stacks: list[list[_StackEntry]] = [[] for _ in self._chain]
        results: set[int] = set()

        def current(index: int):
            if positions[index] < len(streams[index]):
                return streams[index][positions[index]]
            return None

        while True:
            # Pick the stream whose head has the smallest pre (min merge).
            smallest = None
            for index in range(len(streams)):
                head = current(index)
                if head is None:
                    continue
                if smallest is None or head.pre < current(smallest).pre:
                    smallest = index
            if smallest is None:
                break
            record = current(smallest)
            positions[smallest] += 1
            self.stats.postings_scanned += 1

            # Pop entries that ended before this record starts.
            for stack in stacks:
                while stack and stack[-1].record.end < record.pre:
                    stack.pop()

            relation = self._chain[smallest][1]
            if smallest == 0:
                parent_index = 0  # anchored at the scan root
                stacks[0].append(_StackEntry(record, parent_index))
                self.stats.intermediate_results += 1
            else:
                upper = stacks[smallest - 1]
                link = self._link_index(upper, record, relation)
                if link is None:
                    continue
                stacks[smallest].append(_StackEntry(record, link))
                self.stats.intermediate_results += 1
            if smallest == len(self._chain) - 1:
                # A full root-to-leaf chain exists; walk the links to
                # find the output vertex's node on this solution path.
                self._emit(stacks, output_position, results)
        result = sorted(results)
        self.stats.solutions = len(result)
        return result

    @staticmethod
    def _link_index(upper: list[_StackEntry], record: IntervalNode,
                    relation: str):
        """Topmost compatible entry in the upper stack, or None."""
        for index in range(len(upper) - 1, -1, -1):
            entry = upper[index]
            if not entry.record.contains(record):
                continue
            if relation == REL_DESCENDANT:
                return index
            # parent-child / attribute: exactly one level apart.
            if record.parent == entry.record.pre:
                return index
        return None

    def _emit(self, stacks: list[list[_StackEntry]], output_position: int,
              results: set[int]) -> None:
        """The just-pushed leaf closes ≥1 solutions; collect the output
        column along every linked chain through the stacks.

        For a ``//`` link, every stack entry *below* the linked one is a
        nested ancestor of it and therefore also part of a solution; for
        ``/`` the linked entry is the unique parent.
        """
        leaf_stack = stacks[-1]
        frontier = [(len(stacks) - 1, len(leaf_stack) - 1)]
        while frontier:
            level, index = frontier.pop()
            if level == output_position:
                results.add(stacks[level][index].record.pre)
                # Everything above the output level shares the same
                # sub-chain; no need to fan out further.
                continue
            entry = stacks[level][index]
            relation = self._chain[level][1]
            if relation == REL_DESCENDANT:
                for upper_index in range(entry.parent_index + 1):
                    frontier.append((level - 1, upper_index))
            else:
                frontier.append((level - 1, entry.parent_index))

    def _open_streams(self, runtime: MatchRuntime,
                      root: int) -> list[list[IntervalNode]]:
        root_record = runtime.interval.node(root)
        streams = []
        for vertex_id, _ in self._chain:
            vertex = self.pattern.vertices[vertex_id]
            postings = BinaryJoinMatcher._postings_for(runtime, vertex)
            kept = []
            first_relation = self._chain[0][1]
            is_first = vertex_id == self._chain[0][0]
            for record in postings:
                if record.pre <= root_record.pre \
                        or record.pre > root_record.end:
                    continue
                if is_first and first_relation != REL_DESCENDANT \
                        and record.parent != root_record.pre:
                    continue
                if vertex.value_constraints \
                        and not runtime.value_ok(vertex, record.pre):
                    continue
                if vertex.residual \
                        and not runtime.residual_ok(vertex, record.pre):
                    continue
                kept.append(record)
            streams.append(kept)
        return streams
