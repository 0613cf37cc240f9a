"""The cost model (the paper's declared future work, built as planned).

Two halves:

* **cardinality estimation** — walking a pattern graph with the one-pass
  :class:`~repro.storage.stats.DocumentStatistics`: child edges use the
  (parent-tag, child-tag) edge counts, ``//`` edges the (ancestor,
  descendant) pair counts, value constraints the uniform-distinct-values
  selectivity.
* **strategy costing** — page and CPU formulas for each serving
  strategy, mirroring what the operators actually charge to the
  :class:`~repro.storage.pages.PageManager`:

  - ``nok`` / ``partitioned``: one sequential scan of the structure
    segment (plus a merge per cut edge for ``partitioned``);
  - ``columnar``: posting-list pages for every pattern vertex plus a
    bisect/set probe per posting;
  - ``index-scan`` (value predicates): B+ tree descent plus one page per
    matching posting.

Pages are priced by their expected buffer-pool miss rate: an estimate
totals ``pages * miss_rate + cpu / 10_000``.  A bare
``CostModel(stats)`` keeps ``miss_rate = 1.0`` — the paper's cold-disk
setting, where one page read outweighs 10,000 node visits and the
single structure scan wins local paths.  The engine passes the rate its
pool implies for the document (:func:`repro.storage.pages.miss_rate`);
on a resident document that rate is 0 and the lowest-CPU strategy wins.

The join-based and navigational baselines (:mod:`repro.baselines`) are
not priced: ``auto`` never serves with them.  The planner asks
:meth:`CostModel.cheapest_strategy`; experiment E5 verifies the bare
(cold) model picks the right side of the selectivity crossover.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.stats import DocumentStatistics
from repro.algebra.pattern_graph import (
    REL_ATTRIBUTE,
    REL_CHILD,
    REL_SIBLING,
    PatternGraph,
)

__all__ = ["CostModel", "CostEstimate"]

_POSTING_BYTES = 12
_PAGE_BYTES = 4096
_STRUCTURE_BITS_PER_NODE = 2 + 8   # BP bits + tag/kind budget


@dataclass(frozen=True)
class CostEstimate:
    """A strategy's estimated page I/O and CPU work, and the expected
    fraction of those pages that miss the buffer pool."""

    strategy: str
    pages: float
    cpu: float
    miss_rate: float = 1.0

    @property
    def total(self) -> float:
        """Single comparable figure: page misses plus CPU.  Cold
        (``miss_rate`` 1.0) pages dominate and CPU tie-breaks; on a
        resident document (0.0) CPU decides alone."""
        # An inexpressible strategy has infinite pages; inf * 0 is NaN.
        misses = self.pages * self.miss_rate if self.miss_rate else 0.0
        return misses + self.cpu / 10_000.0


class CostModel:
    """Cardinality and strategy costing over one document's statistics.

    ``miss_rate`` is the expected share of charged pages that miss the
    buffer pool (1.0, the default, prices every page as a disk read).
    """

    def __init__(self, stats: DocumentStatistics, miss_rate: float = 1.0):
        self.stats = stats
        self.miss_rate = miss_rate

    # -- cardinalities ----------------------------------------------------------

    def vertex_cardinality(self, pattern: PatternGraph,
                           vertex_id: int) -> float:
        """Estimated matches of one pattern vertex, propagated from the
        root along its unique incoming path."""
        edge = pattern.parent_edge(vertex_id)
        vertex = pattern.vertices[vertex_id]
        if edge is None:
            base = 1.0  # the anchored root (document / context)
        else:
            parent_card = self.vertex_cardinality(pattern, edge.source)
            base = parent_card * self._edge_fanout(pattern, edge)
        for op, literal in vertex.value_constraints:
            base *= self._constraint_selectivity(vertex, op)
        return base

    def _edge_fanout(self, pattern: PatternGraph, edge) -> float:
        parent = pattern.vertices[edge.source]
        child = pattern.vertices[edge.target]
        child_tags = self._tags_of(child)
        parent_tags = self._tags_of(parent)
        child_total = sum(self.stats.count(tag) for tag in child_tags) \
            if child_tags else float(self.stats.node_count)
        if not parent_tags:
            # Unlabelled parent (document root / wildcard): every
            # child-tagged node is reachable once.
            return float(child_total)
        parent_total = sum(self.stats.count(tag) for tag in parent_tags)
        if parent_total == 0:
            return 0.0
        if edge.relation in (REL_CHILD, REL_ATTRIBUTE, REL_SIBLING):
            pairs = sum(self.stats.child_count(p, c)
                        for p in parent_tags for c in child_tags) \
                if child_tags else parent_total  # wildcard child
            return pairs / parent_total
        pairs = sum(self.stats.descendant_count(p, c)
                    for p in parent_tags for c in child_tags) \
            if child_tags else float(child_total)
        return pairs / parent_total

    def _tags_of(self, vertex) -> list[str]:
        if vertex.labels is None:
            if vertex.kind == "text":
                return ["#text"]
            return []
        if vertex.kind == "attribute":
            return ["@" + label for label in vertex.labels]
        return sorted(vertex.labels)

    def _constraint_selectivity(self, vertex, op: str) -> float:
        tags = self._tags_of(vertex)
        if not tags:
            return 0.5
        selectivity = max(
            (self.stats.value_selectivity(tag) for tag in tags),
            default=0.5)
        if selectivity == 0.0:
            selectivity = 0.5
        if op != "=":
            # Range/inequality predicates keep roughly a third.
            selectivity = max(selectivity, 1.0 / 3.0)
        return selectivity

    def result_cardinality(self, pattern: PatternGraph) -> float:
        """Estimated size of the τ output (its output vertices).

        Value constraints on branch vertices off the root→output path
        (e.g. ``book[@year = '1994']``) filter the output too, so their
        selectivities multiply in here.
        """
        outputs = pattern.output_vertices()
        if not outputs:
            return 0.0
        best = 0.0
        for output in outputs:
            estimate = self.vertex_cardinality(pattern, output.vertex_id)
            on_path = self._root_path(pattern, output.vertex_id)
            for vertex in pattern.vertices.values():
                if vertex.vertex_id in on_path:
                    continue
                for op, _ in vertex.value_constraints:
                    estimate *= self._constraint_selectivity(vertex, op)
            best = max(best, estimate)
        return best

    @staticmethod
    def _root_path(pattern: PatternGraph, vertex_id: int) -> set[int]:
        path = {vertex_id}
        edge = pattern.parent_edge(vertex_id)
        while edge is not None:
            path.add(edge.source)
            edge = pattern.parent_edge(edge.source)
        return path

    # -- strategy costs ------------------------------------------------------------

    def _estimate(self, strategy: str, pages: float,
                  cpu: float) -> CostEstimate:
        return CostEstimate(strategy, pages=pages, cpu=cpu,
                            miss_rate=self.miss_rate)

    def _structure_pages(self) -> float:
        bits = self.stats.node_count * _STRUCTURE_BITS_PER_NODE
        return max(1.0, bits / 8 / _PAGE_BYTES)

    def _posting_pages(self, tag_count: float) -> float:
        return max(1.0, tag_count * _POSTING_BYTES / _PAGE_BYTES)

    def nok_cost(self, pattern: PatternGraph) -> CostEstimate:
        """One sequential scan of the structure segment; CPU per event."""
        return self._estimate("nok", pages=self._structure_pages(),
                              cpu=2.0 * self.stats.node_count)

    def partitioned_cost(self, pattern: PatternGraph) -> CostEstimate:
        """One shared structure scan for all NoK partitions plus a merge
        join per cut (non-local) edge over the partial-result tuples."""
        cut_edges = pattern.non_local_edges()
        cpu = 2.0 * self.stats.node_count
        for edge in cut_edges:
            cpu += self.vertex_cardinality(pattern, edge.source)
            cpu += self.vertex_cardinality(pattern, edge.target)
        return self._estimate("partitioned",
                              pages=self._structure_pages(), cpu=cpu)

    def columnar_cost(self, pattern: PatternGraph):
        """Vectorized semi-joins over label columns: one posting read
        per pattern vertex, and a per-entry CPU constant of a bisect/set
        probe instead of node-at-a-time dispatch.  A vertex
        with residual predicates pays the reference evaluator once per
        candidate in its window (the batch post-filter), which is
        orders of magnitude above a bisect probe — the heavy per-entry
        weight keeps ``auto`` from picking the columnar path when
        a big window must be residual-checked.  Returns ``None`` for
        patterns the batch kernels cannot evaluate."""
        from repro.physical.columnar import columnar_eligible

        if not columnar_eligible(pattern):
            return None
        pages = 0.0
        cpu = 0.0
        for vertex_id, vertex in pattern.vertices.items():
            if vertex_id == pattern.root:
                continue
            count = self._vertex_posting_count(pattern, vertex_id)
            pages += self._posting_pages(count)
            cpu += 0.2 * count
            if vertex.residual:
                cpu += 50.0 * count * len(vertex.residual)
        return self._estimate("columnar", pages=pages, cpu=cpu)

    def index_scan_cost(self, pattern: PatternGraph) -> CostEstimate:
        """Content-index driven: only meaningful when some vertex has an
        equality value constraint; descends the B+ tree then verifies
        each hit structurally."""
        constrained = [
            v for v in pattern.vertices.values()
            if any(op == "=" or (op in ("<", "<=", ">", ">=")
                                 and isinstance(lit, (int, float)))
                   for op, lit in v.value_constraints)]
        if not constrained:
            return self._estimate("index-scan", pages=float("inf"),
                                  cpu=float("inf"))
        fragmented = self.stats.fragmented_value_tags
        constrained = [
            v for v in constrained
            if v.kind in ("attribute", "text")
            or (v.labels is not None and not set(v.labels) & fragmented)]
        if not constrained:
            return self._estimate("index-scan", pages=float("inf"),
                                  cpu=float("inf"))
        vertex = min(constrained,
                     key=lambda v: self.vertex_cardinality(pattern,
                                                           v.vertex_id))
        hits = self.vertex_cardinality(pattern, vertex.vertex_id)
        # B+ height ~ log_64; one page per hit to verify structure.
        import math
        height = max(1.0, math.log(max(self.stats.node_count, 2), 64))
        verification = hits * pattern.vertex_count()
        return self._estimate("index-scan", pages=height + hits,
                              cpu=verification)

    def _vertex_posting_count(self, pattern: PatternGraph,
                              vertex_id: int) -> float:
        vertex = pattern.vertices[vertex_id]
        tags = self._tags_of(vertex)
        if not tags:
            return float(self.stats.node_count)
        return float(sum(self.stats.count(tag) for tag in tags))

    def all_costs(self, pattern: PatternGraph) -> list[CostEstimate]:
        """Every finite serving-strategy estimate (scan first, so a tie
        goes to the scan)."""
        estimates = [
            self.nok_cost(pattern) if pattern.is_nok() else
            self.partitioned_cost(pattern),
            self.index_scan_cost(pattern),
            self.columnar_cost(pattern),
        ]
        return [e for e in estimates if e is not None
                and e.total != float("inf")]

    def cheapest_strategy(self, pattern: PatternGraph) -> str:
        """The strategy the optimizer would pick for this pattern."""
        return min(self.all_costs(pattern), key=lambda e: e.total).strategy
