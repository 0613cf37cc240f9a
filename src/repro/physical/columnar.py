"""Vectorized (array-at-a-time) pattern matching over label columns.

The node-at-a-time operators pay Python dispatch per node per step; this
module instead evaluates a whole pattern with a handful of **batch
kernels** over the flat pre-order columns of
:class:`~repro.storage.columns.ColumnarView`:

* candidate generation — per-vertex sorted pre-id arrays from the tag
  index key columns, shrunk to the context window ``[root, end[root]]``
  with two ``bisect`` probes,
* a bottom-up semi-join pass — each vertex keeps the candidates with at
  least one match per child edge (``//`` via a bisect probe into the
  child array plus ``end[a] == a`` leaf pruning; ``/`` and ``@`` via one
  shared parent-id set; ``~`` via a per-parent last-sibling table),
* a top-down semi-join pass — each vertex keeps the candidates under a
  surviving parent (``//`` via a prefix-max-of-``end`` array over the
  sorted ancestors, one bisect per candidate; ``/``/``@``/``~``
  mirrored from the bottom-up tables).

The two passes are exactly the reduction
:class:`~repro.physical.structural_join.BinaryJoinMatcher` performs with
one stack-tree join per edge, so for a single output vertex the result
is the pattern answer, item for item — but every loop body here is a
``bisect`` call, a set probe, or a dict lookup over machine integers, so
the per-candidate constant is a fraction of the per-node object dance.

Eligibility (:func:`columnar_eligible`): one output vertex and only
``/ // @ ~`` edges.  Residual predicates are supported via a **batch
post-filter**: each vertex's candidate window is run through the
engine's reference-evaluator callback (``runtime.residual_ok``) right
after the bisect window-shrink and value-constraint filters, while the
list is at its smallest — the same node-local check every join
strategy applies, so parity is exact; the semi-join passes then only
see survivors.  A runtime without a residual checker raises
:class:`~repro.errors.ExecutionError` so the planner falls back to the
node-at-a-time operators.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right

from repro.errors import ExecutionError
from repro.algebra.pattern_graph import (
    REL_ATTRIBUTE,
    REL_CHILD,
    REL_DESCENDANT,
    REL_SIBLING,
    PatternGraph,
    PatternVertex,
)
from repro.physical.base import (
    MatchRuntime,
    OperatorStats,
    single_output_vertex,
)

__all__ = ["ColumnarMatcher", "columnar_eligible"]

_SUPPORTED_RELATIONS = frozenset(
    {REL_CHILD, REL_DESCENDANT, REL_ATTRIBUTE, REL_SIBLING})


def columnar_eligible(pattern: PatternGraph) -> bool:
    """Can the batch kernels evaluate this pattern exactly?

    Value constraints and residual predicates are both fine: each is
    checked once per candidate while the per-vertex lists are still
    small (residuals re-enter the reference evaluator per surviving
    candidate — the batch post-filter in ``_initial_candidates``).
    """
    if len(pattern.output_vertices()) != 1:
        return False
    return all(edge.relation in _SUPPORTED_RELATIONS
               for edge in pattern.edges)


class ColumnarMatcher:
    """Batch semi-join evaluation of a pattern over label columns."""

    def __init__(self, pattern: PatternGraph):
        self.pattern = pattern
        self.stats = OperatorStats()

    def run(self, runtime: MatchRuntime, root: int = 0) -> list[int]:
        """Distinct pre-order ids matching the output vertex, in
        document order (the same contract as the join strategies)."""
        pattern = self.pattern
        if not columnar_eligible(pattern):
            raise ExecutionError(
                "pattern is not columnar-eligible (multi-output or an "
                "unsupported relation)")
        output_vertex = single_output_vertex(pattern)
        builds_before = runtime.column_builds
        view = runtime.columnar_view()
        if runtime.column_builds != builds_before:
            self.stats.note("columnar.view_builds")
        end, parent = view.end, view.parent

        candidates = self._initial_candidates(runtime, view, root)
        # Bottom-up: a vertex keeps only candidates with a match per
        # child edge (smallest child lists first shrink fastest).
        for vertex_id in self._bottom_up_order():
            edges = pattern.children_of(vertex_id)
            edges.sort(key=lambda e: len(candidates[e.target]))
            for edge in edges:
                candidates[vertex_id] = self._semijoin_up(
                    edge.relation, candidates[vertex_id],
                    candidates[edge.target], end, parent)
        if not candidates[pattern.root]:
            # The anchored root was eliminated: no full match exists.
            self.stats.solutions = 0
            return []
        # Top-down: a vertex keeps only candidates under a survivor.
        for vertex_id in self._top_down_order():
            edge = pattern.parent_edge(vertex_id)
            if edge is None:
                continue
            candidates[vertex_id] = self._semijoin_down(
                edge.relation, candidates[edge.source],
                candidates[vertex_id], end, parent)

        result = list(candidates[output_vertex.vertex_id])
        self.stats.solutions = len(result)
        return result

    # -- candidate generation -----------------------------------------------------

    def _initial_candidates(self, runtime: MatchRuntime, view,
                            root: int) -> dict:
        pattern = self.pattern
        root_pre, root_end = runtime.pre_end(root)
        candidates: dict[int, object] = {}
        for vertex_id, vertex in pattern.vertices.items():
            if vertex_id == pattern.root:
                window = [root_pre]
            else:
                pres = self._vertex_pres(runtime, view, vertex)
                # Shrink to the context window with two probes;
                # everything outside (root_pre, root_end] can never
                # join.
                lo = bisect_left(pres, root_pre)
                hi = bisect_right(pres, root_end)
                window = pres[lo:hi]
                self.stats.postings_scanned += len(window)
            if vertex.value_constraints and vertex_id != pattern.root:
                window = [p for p in window if runtime.value_ok(vertex, p)]
            if vertex.residual:
                # Batch post-filter: the reference evaluator runs once
                # per surviving candidate, node-locally — identical
                # semantics to every join strategy's residual check —
                # and the semi-joins downstream never see rejects.
                before = len(window)
                window = [p for p in window
                          if runtime.residual_ok(vertex, p)]
                self.stats.note("columnar.residual_checked", before)
                self.stats.note("columnar.residual_dropped",
                                before - len(window))
            candidates[vertex_id] = window
            self.stats.intermediate_results += len(window)
            self.stats.note(f"candidates.{vertex.label_text()}",
                            len(window))
        return candidates

    def _vertex_pres(self, runtime: MatchRuntime, view,
                     vertex: PatternVertex):
        """Sorted pre ids of every stored node this vertex's label/kind
        accepts — built from the per-tag key columns so wildcards and
        multi-label vertices reuse the same cached arrays."""
        matched = [tag for tag in view.tags() if vertex.matches_tag(tag)]
        charge = runtime.pages is not None and (
            vertex.labels is not None or vertex.kind == "text")
        if charge:
            for tag in matched:
                runtime.tag_index.pres(tag, charge=True)
        if len(matched) == 1:
            return view.tag_pres(matched[0])
        combined = array("q")
        for tag in matched:
            combined.extend(view.tag_pres(tag))
        # Concatenated sorted runs: Timsort merges them near-linearly.
        return array("q", sorted(combined)) if len(matched) > 1 else combined

    # -- semi-join kernels --------------------------------------------------------

    def _semijoin_up(self, relation: str, ancestors, descendants,
                     end, parent) -> list:
        """Candidates of the edge *source* with >= 1 match on the edge."""
        self.stats.structural_joins += 1
        self.stats.note(f"columnar.semijoin.{relation}")
        if not ancestors or not descendants:
            return []
        if relation == REL_DESCENDANT:
            kept = []
            append = kept.append
            size = len(descendants)
            for a in ancestors:
                if end[a] == a:
                    continue  # leaf: empty subtree window
                index = bisect_right(descendants, a)
                if index < size and descendants[index] <= end[a]:
                    append(a)
            return kept
        if relation in (REL_CHILD, REL_ATTRIBUTE):
            parents = {parent[d] for d in descendants}
            return [a for a in ancestors if a in parents]
        # REL_SIBLING: keep lefts with a following sibling on the right.
        last_right: dict[int, int] = {}
        for d in descendants:  # ascending pre: final write is the max
            last_right[parent[d]] = d
        return [a for a in ancestors
                if last_right.get(parent[a], -1) > a]

    def _semijoin_down(self, relation: str, ancestors, descendants,
                       end, parent) -> list:
        """Candidates of the edge *target* under a surviving source."""
        self.stats.structural_joins += 1
        self.stats.note(f"columnar.semijoin.{relation}")
        if not ancestors or not descendants:
            return []
        if relation == REL_DESCENDANT:
            # prefix_end[i] = max end over ancestors[:i + 1]; d has an
            # ancestor iff some a < d (a bisect prefix) reaches >= d.
            prefix_end = array("q", ancestors)
            best = -1
            for index, a in enumerate(ancestors):
                reach = end[a]
                if reach > best:
                    best = reach
                prefix_end[index] = best
            kept = []
            append = kept.append
            for d in descendants:
                index = bisect_left(ancestors, d)
                if index and prefix_end[index - 1] >= d:
                    append(d)
            return kept
        if relation in (REL_CHILD, REL_ATTRIBUTE):
            surviving = set(ancestors)
            return [d for d in descendants if parent[d] in surviving]
        # REL_SIBLING: keep rights with a preceding left sharing the
        # parent (missing parent defaults to d itself, which fails <).
        first_left: dict[int, int] = {}
        for a in ancestors:  # ascending pre: first write is the min
            if parent[a] not in first_left:
                first_left[parent[a]] = a
        return [d for d in descendants
                if first_left.get(parent[d], d) < d]

    # -- traversal orders ---------------------------------------------------------

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
