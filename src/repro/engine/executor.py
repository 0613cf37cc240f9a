"""Plan execution with physical lowering.

:func:`run_plan` executes a logical plan exactly like
:func:`repro.algebra.plan.execute_plan`, except that every **τ** node is
dispatched to the physical planner — NoK scan, partitioned NoK + joins,
columnar semi-joins or index-scan (or a baseline forced by name) —
against the loaded document's storage, and the resulting pre-order ids
become node handles (:mod:`repro.storage.handles`) so the rest of the
plan (list operators, FLWOR machinery, γ) is storage-agnostic.

Patterns whose output set the join strategies cannot produce (multiple
output vertices) run through the NoK binding machinery.

Thread contract: one :class:`PhysicalExecutionContext` belongs to one
query execution on one thread — contexts are cheap and never shared
across threads (``Database.query_many`` builds one per query).  A
context carries the query's pinned ``DatabaseSnapshot``: every document
version it touches is immutable, so execution needs no lock at all; the
remaining shared mutable structures (the caches, the page manager, the
per-version strategy memo) take their own internal locks, so any number
of contexts may execute concurrently — including while a writer builds
and publishes new versions.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.errors import ExecutionError, QueryTimeoutError
from repro.xml import model
from repro.storage.handles import ColumnNode, node_handles
from repro.algebra.plan import (
    ExecutionContext,
    PlanNode,
    Scan,
    Tau,
    execute_plan,
)
from repro.observability.tracing import NULL_SPAN
from repro.physical.base import OperatorStats

__all__ = ["PhysicalExecutionContext", "run_plan"]


class PhysicalExecutionContext(ExecutionContext):
    """Execution context that lowers τ nodes onto the storage engine."""

    def __init__(self, database, documents, context_node=None,
                 strategy: str = "auto", variables: Optional[dict] = None,
                 *, snapshot, deadline: Optional[float] = None):
        super().__init__(documents, variables=variables,
                         context_node=context_node)
        self.database = database
        # The pinned DatabaseSnapshot this execution runs against; τ
        # nodes resolve documents through it so a long-running query
        # keeps one consistent version of everything even while writers
        # publish successors.
        self.snapshot = snapshot
        self.strategy = strategy
        # Wall-clock deadline (time.monotonic() reference) after which
        # execution must abort with QueryTimeoutError.  Checked
        # cooperatively between τ batches — see check_deadline() — so a
        # server-side timeout stops a runaway structural join instead of
        # leaking the worker thread.  None = no deadline.
        self.deadline = deadline
        # Shared across with_variables() copies so sub-plan executions
        # (FLWOR clause sources) report into the same query record.
        self._shared = {"last_strategy": None}
        self.accumulated_stats = OperatorStats()
        # EXPLAIN ANALYZE hook: when the database sets this to a list,
        # run_tau appends one OperatorRecord per executed τ (estimates
        # from the cost model next to measured rows/pages/time).
        self.analyze_records: Optional[list] = None

    @property
    def last_strategy(self) -> Optional[str]:
        return self._shared["last_strategy"]

    @last_strategy.setter
    def last_strategy(self, value: Optional[str]) -> None:
        self._shared["last_strategy"] = value

    def with_variables(self, variables: dict) -> "PhysicalExecutionContext":
        child = PhysicalExecutionContext.__new__(PhysicalExecutionContext)
        child.documents = self.documents
        child.variables = variables
        child.context_node = self.context_node
        child.interpreter = self.interpreter
        child.database = self.database
        child.snapshot = self.snapshot
        child.strategy = self.strategy
        child.deadline = self.deadline
        child._shared = self._shared
        child.accumulated_stats = self.accumulated_stats
        child.analyze_records = self.analyze_records
        return child

    def check_deadline(self) -> None:
        """Abort with :class:`QueryTimeoutError` once the deadline has
        passed.  Called between τ batches (every run_plan dispatch, τ
        entry, and periodically inside the construct loop), so FLWOR
        iterations and multi-τ plans abort within one batch of the
        deadline instead of running to completion."""
        if self.deadline is not None \
                and time.monotonic() >= self.deadline:
            raise QueryTimeoutError(
                "query exceeded its wall-clock deadline "
                "(aborted cooperatively between tau batches)")

    # -- physical tau ------------------------------------------------------------

    def run_tau(self, plan: Tau) -> list:
        """Execute a τ over the loaded storage; returns node handles."""
        self.check_deadline()
        scan = plan.inputs[0]
        if not isinstance(scan, Scan):
            raise ExecutionError("tau input must be a document scan")
        root = execute_plan(scan, self)
        if not isinstance(root, ColumnNode):
            raise ExecutionError(
                f"document {getattr(root, 'uri', '?')!r} has no storage "
                "(loaded outside the database?)")
        loaded = root.version
        analyzing = self.analyze_records is not None
        observability = getattr(self.database, "observability", None)
        tracer = observability.tracer if observability is not None \
            else None
        # The planner carries the document's persistent strategy memo:
        # repeated executions of a hot pattern skip the cost model.
        with (tracer.span("plan") if tracer is not None else NULL_SPAN):
            planner = self.database.planner_for(loaded)
        outputs = plan.pattern.output_vertices()
        span = (tracer.span("execute.tau") if tracer is not None
                else NULL_SPAN)
        if analyzing:
            io_before = self.database.pages.thread_snapshot()
            tau_started = time.perf_counter()
        with span:
            if len(outputs) == 1:
                matches, stats, used = planner.match(
                    plan.pattern, loaded.runtime, root=0,
                    strategy=self.strategy)
            else:
                bindings, stats = planner.match_bindings(
                    plan.pattern, loaded.runtime, root=0)
                matches = sorted({node for binding in bindings
                                  for node in binding.values()})
                used = "nok"
            if span.is_recording:
                span.set(strategy=used, rows=len(matches),
                         pattern=_tau_label(plan.pattern))
        self.last_strategy = used
        self.accumulated_stats.merge(stats)
        self.accumulated_stats.solutions += stats.solutions
        if analyzing:
            self._record_analysis(plan, planner, loaded, stats, used,
                                  len(matches), io_before, tau_started)
        # "construct": pre-order ids become node handles for the rest of
        # the (storage-agnostic) plan.
        with (tracer.span("construct") if tracer is not None
              else NULL_SPAN):
            if self.deadline is None or len(matches) <= 4096:
                return node_handles(loaded, matches)
            nodes = []
            for start in range(0, len(matches), 4096):
                self.check_deadline()
                nodes.extend(node_handles(loaded,
                                          matches[start:start + 4096]))
            return nodes

    def _record_analysis(self, plan: Tau, planner, loaded, stats,
                         used: str, rows: int, io_before: dict,
                         tau_started: float) -> None:
        """Append one EXPLAIN ANALYZE record for an executed τ."""
        from repro.observability.analyze import OperatorRecord

        elapsed = time.perf_counter() - tau_started
        io_after = self.database.pages.thread_snapshot()
        cost_model = planner.cost_model
        est_rows = 0.0
        est_pages = None
        if cost_model is not None:
            try:
                est_rows = cost_model.result_cardinality(plan.pattern)
                for estimate in cost_model.all_costs(plan.pattern):
                    if estimate.strategy == used:
                        est_pages = estimate.pages
                        break
            except Exception:
                pass  # estimates are best-effort; actuals still matter
        self.analyze_records.append(OperatorRecord(
            operator=_tau_label(plan.pattern),
            strategy=used,
            est_rows=est_rows,
            est_pages=est_pages,
            actual_rows=rows,
            nodes_visited=stats.nodes_visited,
            postings_scanned=stats.postings_scanned,
            intermediate_results=stats.intermediate_results,
            structural_joins=stats.structural_joins,
            pages_read=(io_after.get("page_reads", 0)
                        - io_before.get("page_reads", 0)),
            pool_hits=(io_after.get("pool_hits", 0)
                       - io_before.get("pool_hits", 0)),
            elapsed_seconds=elapsed,
            detail=dict(stats.detail),
        ))


def _tau_label(pattern) -> str:
    """A one-line operator name for spans and EXPLAIN ANALYZE rows."""
    try:
        outputs = [v for v in pattern.vertices.values() if v.output]
        label = outputs[0].label_text() if outputs else "?"
    except Exception:
        label = "?"
    return (f"tau[{label}; {len(pattern.vertices)}v"
            f"/{len(pattern.edges)}e]")


def run_plan(plan: PlanNode, context: PhysicalExecutionContext):
    """Execute ``plan`` with physical τ lowering; other node types reuse
    the logical executor (which calls back into this function for
    sub-plans through the EnvBuild machinery)."""
    context.check_deadline()
    if isinstance(plan, Tau) and plan.inputs \
            and isinstance(plan.inputs[0], Scan):
        return context.run_tau(plan)
    value = execute_plan(plan, context)
    return _normalise(value)


def _normalise(value):
    from repro.algebra.nested import NestedList

    if isinstance(value, NestedList):
        return value.flatten()
    if isinstance(value, model.Document):
        return list(value.children())
    if isinstance(value, list):
        return value
    return [value]
