"""Index-driven pattern evaluation (the content-index access path).

Section 4.2 motivates the separated content store precisely because
"content-based indexes (such as B+ trees ...) can be created only on the
content information".  This strategy exploits that index: for a pattern
with an equality value constraint, it

1. probes the content B+ tree for the literal, getting the owning
   text/attribute nodes;
2. maps them to candidate matches of the constrained vertex (the
   attribute node itself, or the text node's parent element, verified
   against the full string value);
3. finishes on the columnar semi-join kernels
   (:class:`~repro.physical.columnar.ColumnarMatcher`), substituting the
   tiny candidate list for that vertex's posting list.

Range predicates (``<``, ``<=``, ``>``, ``>=`` against numeric literals)
probe the *numeric* value index instead — string order would put "9"
after "10" — using a B+ tree range scan over its leaves.

For highly selective predicates this touches a handful of pages where the
scan-based strategies read everything — the crossover of experiment E5.
"""

from __future__ import annotations

from repro.errors import ExecutionError
from repro.algebra.pattern_graph import PatternGraph, PatternVertex
from repro.physical.base import MatchRuntime, OperatorStats
from repro.physical.columnar import ColumnarMatcher
from repro.storage.succinct import KIND_ATTRIBUTE, KIND_TEXT

__all__ = ["IndexScanMatcher"]


class IndexScanMatcher:
    """B+-tree probe + columnar structural verification."""

    def __init__(self, pattern: PatternGraph):
        self.pattern = pattern
        self.stats = OperatorStats()
        self._target = self._pick_constrained_vertex(pattern)

    @staticmethod
    def _pick_constrained_vertex(pattern: PatternGraph) -> PatternVertex:
        equalities = [v for v in pattern.vertices.values()
                      if any(op == "=" for op, _ in v.value_constraints)]
        if equalities:
            return equalities[0]
        ranged = [v for v in pattern.vertices.values()
                  if any(op in ("<", "<=", ">", ">=")
                         and isinstance(lit, (int, float))
                         for op, lit in v.value_constraints)]
        if ranged:
            return ranged[0]
        raise ExecutionError(
            "index-scan needs an equality or numeric range constraint")

    def run(self, runtime: MatchRuntime, root: int = 0) -> list[int]:
        """Distinct pre-order ids matching the output vertex."""
        vertex = self._target
        owners = self._probe(runtime, vertex)
        self.stats.postings_scanned += len(owners)
        self.stats.note("index.owners", len(owners))

        self._check_probe_is_lossless(runtime, vertex)
        candidates = []
        seen: set[int] = set()
        kinds = runtime.interval.kinds
        parents = runtime.interval.parent
        for owner in owners:
            kind = kinds[owner]
            if vertex.kind == "attribute":
                nodes = [owner] if kind == KIND_ATTRIBUTE else []
            elif vertex.kind == "text":
                nodes = [owner] if kind == KIND_TEXT else []
            elif kind == KIND_TEXT:
                # Element vertex: any ancestor of the text hit may be the
                # match (its *full* string value is verified below) — the
                # text need not be a direct child.
                nodes = []
                ancestor = parents[owner]
                while ancestor >= 0:
                    nodes.append(ancestor)
                    ancestor = parents[ancestor]
            else:
                nodes = []
            for node in nodes:
                if node in seen:
                    continue
                seen.add(node)
                runtime.charge_random_node(node)
                if not runtime.vertex_accepts(vertex, node):
                    continue
                candidates.append(node)
        candidates.sort()
        self.stats.intermediate_results += len(candidates)

        matcher = ColumnarMatcher(
            self.pattern,
            candidate_overrides={vertex.vertex_id: candidates})
        result = matcher.run(runtime, root=root)
        self.stats.merge(matcher.stats)
        self.stats.solutions = len(result)
        return result

    def _check_probe_is_lossless(self, runtime: MatchRuntime,
                                 vertex: PatternVertex) -> None:
        """An element whose value spans >= 2 text runs is invisible to a
        per-run content index (no single entry equals the full value):
        refuse when the statistics say the constrained tag is fragmented
        (the planner then falls back to a scan strategy)."""
        if vertex.kind in ("attribute", "text"):
            return
        statistics = runtime.statistics
        if statistics is None:
            return  # best effort without statistics
        fragmented = statistics.fragmented_value_tags
        if vertex.labels is None:
            if fragmented:
                raise ExecutionError(
                    "index-scan is lossy for wildcard element values in "
                    "a document with fragmented text")
            return
        overlap = set(vertex.labels) & fragmented
        if overlap:
            raise ExecutionError(
                f"index-scan is lossy for fragmented element values "
                f"({sorted(overlap)}); use a scan strategy")

    def _probe(self, runtime: MatchRuntime, vertex: PatternVertex
               ) -> list[int]:
        """Owner pre-order ids from the matching index: string equality
        probes the content B+ tree; numeric ranges scan the typed one."""
        equality = next((lit for op, lit in vertex.value_constraints
                         if op == "="), None)
        if equality is not None:
            if runtime.value_index is None:
                raise ExecutionError("runtime has no content value index")
            return runtime.value_index.search(_as_index_key(equality))
        if runtime.numeric_index is None:
            raise ExecutionError("runtime has no numeric value index")
        low, high = float("-inf"), float("inf")
        include_low = include_high = True
        for op, literal in vertex.value_constraints:
            if not isinstance(literal, (int, float)):
                continue
            bound = float(literal)
            if op in (">", ">="):
                if bound > low:
                    low, include_low = bound, op == ">="
            elif op in ("<", "<="):
                if bound < high:
                    high, include_high = bound, op == "<="
        return [owner for _, owner in runtime.numeric_index.range(
            low, high, include_low=include_low, include_high=include_high)]


def _as_index_key(literal) -> str:
    """Index keys are the raw stored strings; numeric literals probe
    their canonical text form."""
    if isinstance(literal, float) and literal == int(literal):
        return str(int(literal))
    return str(literal)
