"""The physical planner: lower a pattern graph to a strategy.

Serving strategies — the only ones the cost model prices, so the only
ones ``auto`` picks:

=================  ======================================================
``nok``            single-scan NoK matcher (NoK patterns only)
``partitioned``    NoK partitions + structural joins (any pattern)
``columnar``       vectorized semi-joins over label columns
``index-scan``     content B+ tree probe + columnar verification
``auto``           cost-model choice (:class:`repro.algebra.cost.CostModel`)
=================  ======================================================

Forced-only baselines (:mod:`repro.baselines`), run by name for the
paper's comparisons and never chosen by ``auto``:

=================  ======================================================
``structural-join``one stack-tree join per edge
``pathstack``      holistic path join (linear patterns)
``twigstack``      holistic twig join (branching patterns)
``navigational``   node-at-a-time traversal (commercial stand-in)
=================  ======================================================

A strategy that cannot express the pattern (PathStack on a twig,
index-scan without a value constraint or over fragmented values, ...)
raises :class:`~repro.errors.ExecutionError`; :meth:`PhysicalPlanner.match`
then falls back to ``nok``/``partitioned``.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ExecutionError, PlanError
from repro.algebra.cost import CostModel
from repro.algebra.pattern_graph import PatternGraph
from repro.baselines.navigational import NavigationalMatcher
from repro.baselines.pathstack import PathStackJoin
from repro.baselines.structural_join import BinaryJoinMatcher
from repro.baselines.twigstack import TwigStackJoin
from repro.physical.base import MatchRuntime, OperatorStats
from repro.physical.columnar import ColumnarMatcher
from repro.physical.indexscan import IndexScanMatcher
from repro.physical.nok import NoKMatcher
from repro.physical.partition import PartitionedMatcher

__all__ = ["PhysicalPlanner", "STRATEGIES"]

STRATEGIES = ("nok", "partitioned", "structural-join", "pathstack",
              "twigstack", "navigational", "index-scan", "columnar",
              "auto")

# Every strategy but ``nok`` (single-output special case) and ``auto``.
_MATCHERS = {
    "partitioned": PartitionedMatcher,
    "structural-join": BinaryJoinMatcher,
    "pathstack": PathStackJoin,
    "twigstack": TwigStackJoin,
    "navigational": NavigationalMatcher,
    "index-scan": IndexScanMatcher,
    "columnar": ColumnarMatcher,
}


class PhysicalPlanner:
    """Chooses and runs a physical strategy for pattern matching.

    ``choice_memo`` (optional) memoizes ``auto``-mode strategy choices
    across calls: keys are ``(pattern signature, statistics
    generation)``, so a choice is reused for the repeated executions of
    a hot query but naturally expires whenever an update changes the
    document statistics.  The dict is owned by the caller (the engine
    keeps one per document *version* — successor versions start fresh,
    so a memo can never leak across an MVCC publish) and survives
    planner instances.

    ``memo_lock`` (optional) guards the memo dict: concurrent reader
    threads executing the same hot pattern read and fill it
    simultaneously.  Only the get/put touch the lock — cost-model
    evaluation runs outside it, so a racing miss costs at worst one
    duplicate costing whose identical result is idempotent to store.
    """

    def __init__(self, cost_model: Optional[CostModel] = None,
                 choice_memo: Optional[dict] = None,
                 memo_lock=None):
        self.cost_model = cost_model
        self.choice_memo = choice_memo
        self.memo_lock = memo_lock
        self.memo_hits = 0
        self.memo_misses = 0

    def _memo_get(self, memo_key: tuple) -> Optional[str]:
        if self.memo_lock is not None:
            with self.memo_lock:
                return self.choice_memo.get(memo_key)
        return self.choice_memo.get(memo_key)

    def _memo_put(self, memo_key: tuple, choice: str) -> None:
        if self.memo_lock is not None:
            with self.memo_lock:
                self.choice_memo[memo_key] = choice
        else:
            self.choice_memo[memo_key] = choice

    def _memo_key(self, pattern: PatternGraph) -> Optional[tuple]:
        if self.choice_memo is None:
            return None
        generation = 0
        if self.cost_model is not None:
            generation = getattr(self.cost_model.stats, "generation", 0)
        return (pattern.signature(), generation)

    def choose(self, pattern: PatternGraph) -> str:
        """The strategy ``auto`` resolves to for this pattern."""
        memo_key = self._memo_key(pattern)
        if memo_key is not None:
            cached = self._memo_get(memo_key)
            if cached is not None:
                self.memo_hits += 1
                return cached
            self.memo_misses += 1
        choice = self._choose_uncached(pattern)
        if memo_key is not None:
            self._memo_put(memo_key, choice)
        return choice

    def _choose_uncached(self, pattern: PatternGraph) -> str:
        if self.cost_model is None:
            return "nok" if pattern.is_nok() else "partitioned"
        return self.cost_model.cheapest_strategy(pattern)

    def match(self, pattern: PatternGraph, runtime: MatchRuntime,
              root: int = 0, strategy: str = "auto"
              ) -> tuple[list[int], OperatorStats, str]:
        """Evaluate ``pattern``; returns (matches, stats, strategy used).

        Output is the distinct pre-order ids of the single output vertex
        (multi-output patterns run through NoK/partitioned only).
        """
        if strategy not in STRATEGIES:
            raise PlanError(f"unknown strategy {strategy!r}")
        was_auto = strategy == "auto"
        if was_auto:
            strategy = self.choose(pattern)
        try:
            return self._dispatch(pattern, runtime, root, strategy)
        except ExecutionError:
            if strategy in ("nok", "partitioned"):
                raise
            # The strategy could not express the pattern (a forced
            # baseline's shape limit, index-scan's lossy-value refusal,
            # ...): fall back.
            fallback = "nok" if pattern.is_nok() else "partitioned"
            result = self._dispatch(pattern, runtime, root, fallback)
            if was_auto:
                # Remember the *working* strategy so repeated executions
                # of this pattern skip the doomed attempt entirely.
                memo_key = self._memo_key(pattern)
                if memo_key is not None:
                    self._memo_put(memo_key, fallback)
            return result

    def match_bindings(self, pattern: PatternGraph, runtime: MatchRuntime,
                       root: int = 0) -> tuple[list[dict], OperatorStats]:
        """Full output-vertex bindings (tuples) — always via the NoK
        machinery, which natively produces them."""
        if pattern.is_nok():
            matcher = NoKMatcher(pattern, anchored=True)
            bindings = matcher.run(runtime, root=root)
            return bindings, matcher.stats
        partitioned = PartitionedMatcher(pattern)
        output_ids = {v.vertex_id for v in pattern.output_vertices()}
        tuples = partitioned.partition_tuples(runtime, root)
        bindings = [{vid: node for vid, node in binding.items()
                     if vid in output_ids} for binding in tuples]
        unique: dict[tuple, dict] = {}
        for binding in bindings:
            unique.setdefault(tuple(sorted(binding.items())), binding)
        return list(unique.values()), partitioned.stats

    def _dispatch(self, pattern: PatternGraph, runtime: MatchRuntime,
                  root: int, strategy: str
                  ) -> tuple[list[int], OperatorStats, str]:
        if strategy == "nok" and not pattern.is_nok():
            strategy = "partitioned"  # NoK needs a NoK pattern
        if strategy == "nok":
            nok = NoKMatcher(pattern, anchored=True)
            bindings = nok.run(runtime, root=root)
            output_ids = [v.vertex_id for v in pattern.output_vertices()]
            if len(output_ids) != 1:
                raise ExecutionError("planner.match needs a single output; "
                                     "use match_bindings")
            matches = sorted({binding[output_ids[0]]
                              for binding in bindings
                              if output_ids[0] in binding})
            nok.stats.solutions = len(matches)
            return matches, nok.stats, "nok"
        matcher = _MATCHERS[strategy](pattern)
        return matcher.run(runtime, root=root), matcher.stats, strategy
