"""The NoK (next-of-kin) pattern matcher — one automaton, two drivers.

Section 4.2: "We have also identified a subset of the path expression,
which we call next-of-kin (NoK) expressions, consisting of only those
local structural relationships.  The evaluation of NoK expressions can be
performed more efficiently using a navigational technique based on our
physical storage structures without the need for structural joins."

One automaton merges one or more matchers' patterns into a single vertex
space.  It is fed the nodes of one pre-order pass and keeps, for every
*open* node, the candidates: the pattern vertices the node may match.
``open`` derives a node's candidates from its parent's and from the
pattern roots; ``close`` *confirms* a node's candidates once all required
child edges have been satisfied by its (already closed) children, and
hands the bindings up to the parent candidate, or to the owning matcher's
results at a pattern root.  Memory is O(depth × |pattern|) plus output
bindings.

Two drivers feed it the same pre-order:

* :func:`run_shared_scan` — the stored ``level``/``tags``/``kinds`` label
  columns, charged as one sequential read of the succinct structure
  segment; value constraints and residual predicates use the
  :class:`MatchRuntime` accessors.  :meth:`NoKMatcher.run` is this scan
  with one matcher, and the partitioned evaluation drives every
  partition's matcher over it at once.
* :meth:`NoKMatcher.run_stream` — raw parse events (experiment E9: "the
  path query evaluation algorithm can also be used in the streaming
  context"); a node's text is buffered only while a value-constrained
  candidate is open on it.

Supported edges: ``/`` and ``@`` (the NoK relations the single scan can
resolve).  ``~`` (following-sibling) and ``//`` are partition boundaries
handled by :mod:`repro.physical.partition`.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Optional

from repro.errors import ExecutionError
from repro.xml.events import (
    Characters,
    EndDocument,
    EndElement,
    Event,
    StartDocument,
    StartElement,
)
from repro.algebra.operators import compare_values
from repro.algebra.pattern_graph import (
    REL_ATTRIBUTE,
    REL_CHILD,
    PatternGraph,
)
from repro.physical.base import MatchRuntime, OperatorStats
from repro.storage.succinct import KIND_ATTRIBUTE

__all__ = ["NoKMatcher"]

_NOK_RELATIONS = frozenset({REL_CHILD, REL_ATTRIBUTE})


class NoKMatcher:
    """Single-scan matcher for a NoK pattern."""

    def __init__(self, pattern: PatternGraph, anchored: bool = True):
        for edge in pattern.edges:
            if edge.relation not in _NOK_RELATIONS:
                raise ExecutionError(
                    f"NoK matcher cannot evaluate a {edge.relation!r} edge; "
                    "partition the pattern first")
        self.pattern = pattern
        self.anchored = anchored
        self.stats = OperatorStats()

    def run(self, runtime: MatchRuntime, root: int = 0) -> list[dict]:
        """Match over the stored label columns, scanning the subtree at
        ``root``.  Returns the distinct output-vertex bindings."""
        self.stats.note("nok.structure_scans")
        return run_shared_scan(runtime, [self], root)[0]

    def run_stream(self, events: Iterable[Event],
                   keep_whitespace: bool = False) -> list[dict]:
        """Match over a raw parse-event stream without building any
        storage.  Node handles in the output are stream pre-order ids,
        assigned exactly as the storage builder assigns them (adjacent
        text runs merge; empty runs are skipped, and so are
        whitespace-only runs unless ``keep_whitespace``) so streaming
        and storage results align.

        Residual predicates are unsupported here (they need the engine's
        document); value constraints are checked against buffered text.
        """
        if self.pattern.has_residuals():
            raise ExecutionError(
                "streaming evaluation cannot check residual predicates")
        automaton = _Automaton([self])
        # Entries: [candidates or None, the node's text parts or None].
        stack: list[list] = []
        buffering = 0       # entries whose text is being collected
        preorder = 0
        pending_text: list[str] = []

        def start_node(tag: str, is_attribute: bool,
                       text: Optional[str] = None) -> list:
            nonlocal preorder, buffering
            candidates = automaton.open(
                preorder, tag, is_attribute,
                stack[-1][0] if stack else None, not stack)
            preorder += 1
            parts = None
            if candidates and any(candidate.state.vertex.value_constraints
                                  for candidate in candidates):
                parts = [] if text is None else [text]
                buffering += 1
            return [candidates, parts]

        def end_node(entry: list) -> None:
            nonlocal buffering
            candidates, parts = entry
            if parts is not None:
                buffering -= 1
                text = "".join(parts)
            if candidates:
                automaton.close(
                    candidates,
                    lambda vertex, node: all(
                        compare_values(op, text, literal)
                        for op, literal in vertex.value_constraints),
                    None)   # no residuals, checked above

        def flush_text() -> None:
            """Materialise a merged text run as one node (mirrors the
            storage builder: whitespace-only runs vanish by default)."""
            if not pending_text:
                return
            value = "".join(pending_text)
            pending_text.clear()
            if not value or (not keep_whitespace and not value.strip()):
                return
            end_node(start_node("#text", False, value))
            if buffering:
                for _, parts in stack:
                    if parts is not None:
                        parts.append(value)

        for event in events:
            if isinstance(event, StartDocument):
                stack.append(start_node("#document", False))
            elif isinstance(event, StartElement):
                flush_text()
                stack.append(start_node(event.tag, False))
                for name, value in event.attributes:
                    end_node(start_node("@" + name, True, value))
            elif isinstance(event, Characters):
                pending_text.append(event.value)
            elif isinstance(event, (EndElement, EndDocument)):
                flush_text()
                end_node(stack.pop())
        return automaton.finish(preorder)[0]


def run_shared_scan(runtime: MatchRuntime, matchers: list[NoKMatcher],
                    root: int = 0) -> list[list[dict]]:
    """Drive one or more NoK matchers over ONE pre-order scan of the
    subtree at ``root``; returns one binding list per matcher (same
    order).

    This is how the partitioned evaluation of Section 4.2 keeps its
    promise of "a single scan of the input data": the matchers' patterns
    are one automaton, so the per-node cost stays that of one matcher.
    The scan walks pre ids from ``root`` to ``end[root]``; a node's
    ``level`` says how many open nodes above it are still open, so the
    nodes deeper than that close first (in the order their close
    parentheses would arrive).  A node with no open candidate above it
    is only handed to the automaton when it is the scan root or its tag
    can start an unanchored pattern — the common case stays
    allocation-free.
    """
    runtime.charge_structure_scan()
    automaton = _Automaton(matchers)
    open_, close = automaton.open, automaton.close
    value_ok, residual_ok = runtime.value_ok, runtime.residual_ok
    root_tags = automaton.roots_by_tag
    every_tag = bool(automaton.wildcard_roots)
    interval = runtime.interval
    tags = interval.tags
    kinds = interval.kinds
    levels = interval.level
    stop = interval.end[root] + 1
    top_level = levels[root]
    # Entries are candidate lists, None where no candidate is open.
    stack: list = []
    for node, level in zip(range(root, stop), islice(levels, root, stop)):
        depth = level - top_level
        while len(stack) > depth:
            candidates = stack.pop()
            if candidates:
                close(candidates, value_ok, residual_ok)
        parent_candidates = stack[-1] if stack else None
        if parent_candidates or node == root or every_tag or (
                root_tags and tags[node] in root_tags):
            stack.append(open_(node, tags[node],
                               kinds[node] == KIND_ATTRIBUTE,
                               parent_candidates, node == root))
        else:
            stack.append(None)
    while stack:
        candidates = stack.pop()
        if candidates:
            close(candidates, value_ok, residual_ok)
    return automaton.finish(stop - root)


class _State:
    """One pattern vertex in the automaton's merged vertex space."""

    __slots__ = ("vertex", "owner", "tags", "accepts", "edges", "carries")

    def __init__(self, vertex, owner: int):
        self.vertex = vertex
        self.owner = owner          # index of the matcher it belongs to
        # The stored tags the vertex accepts (names never start with the
        # '@', '#' or '?' of other kinds' tags); None for a wildcard,
        # which is tested by kind on every tag.
        self.tags: Optional[frozenset[str]] = None
        if vertex.labels is not None and vertex.kind == "element":
            self.tags = vertex.labels
        elif vertex.labels is not None and vertex.kind == "attribute":
            self.tags = frozenset("@" + label for label in vertex.labels)
        self.accepts = (vertex.matches_tag if self.tags is None
                        else self.tags.__contains__)
        # Per child edge: (edge index, is an attribute edge, target state)
        # and whether the edge's subtree holds an output vertex.
        self.edges: tuple = ()
        self.carries: tuple = ()


class _Candidate:
    """A node tentatively matching one pattern vertex."""

    __slots__ = ("state", "node", "parent", "edge_index",
                 "edge_bindings", "edge_satisfied")

    def __init__(self, state: _State, node: int,
                 parent: Optional["_Candidate"], edge_index: Optional[int]):
        self.state = state
        self.node = node
        self.parent = parent
        self.edge_index = edge_index
        # Per child edge: collected output bindings (only filled for
        # edges that carry outputs) and a satisfied flag.
        count = len(state.edges)
        self.edge_bindings: list[list[dict]] = [[] for _ in range(count)]
        self.edge_satisfied = [False] * count


class _Automaton:
    """The open/close/confirm logic over the merged patterns of
    ``matchers``, with results and candidate work kept per matcher."""

    def __init__(self, matchers: list[NoKMatcher]):
        self.matchers = matchers
        self.results: list[list[dict]] = [[] for _ in matchers]
        self.intermediate = [0] * len(matchers)
        self.anchored_roots: list[_State] = []   # start at the scan root
        self.roots_by_tag: dict[str, list[_State]] = {}   # labelled roots
        self.wildcard_roots: list[_State] = []   # test every node's tag
        for owner, matcher in enumerate(matchers):
            pattern = matcher.pattern
            states = {vertex_id: _State(vertex, owner)
                      for vertex_id, vertex in pattern.vertices.items()}
            for vertex_id, state in states.items():
                edges = pattern.children_of(vertex_id)
                state.edges = tuple(
                    (index, edge.relation == REL_ATTRIBUTE,
                     states[edge.target])
                    for index, edge in enumerate(edges))
                state.carries = tuple(
                    pattern.vertices[edge.target].output or any(
                        pattern.vertices[below].output
                        for below in pattern.descendants_of(edge.target))
                    for edge in edges)
            root = states[pattern.root]
            if matcher.anchored:
                self.anchored_roots.append(root)
            elif root.tags is None:
                self.wildcard_roots.append(root)
            else:
                for tag in root.tags:
                    self.roots_by_tag.setdefault(tag, []).append(root)

    def open(self, node: int, tag: str, is_attribute: bool,
             parent_candidates: Optional[list],
             at_scan_root: bool) -> Optional[list]:
        """The candidates of a node that opens (None if it has none)."""
        candidates = []
        if parent_candidates:
            for parent in parent_candidates:
                for index, wants_attribute, target in parent.state.edges:
                    if wants_attribute == is_attribute and \
                            target.accepts(tag):
                        candidates.append(
                            _Candidate(target, node, parent, index))
        for root in self.roots_by_tag.get(tag, ()):
            candidates.append(_Candidate(root, node, None, None))
        for root in self.wildcard_roots:
            if root.accepts(tag):
                candidates.append(_Candidate(root, node, None, None))
        if at_scan_root:
            for root in self.anchored_roots:
                candidates.append(_Candidate(root, node, None, None))
        return candidates or None

    def close(self, candidates: list, value_ok, residual_ok) -> None:
        """Confirm or discard the candidates of a node that closes."""
        for candidate in candidates:
            if not all(candidate.edge_satisfied):
                continue
            state = candidate.state
            vertex = state.vertex
            node = candidate.node
            if vertex.value_constraints and not value_ok(vertex, node):
                continue
            if vertex.residual and not residual_ok(vertex, node):
                continue
            # Combine child bindings (cross product over output-carrying
            # edges; existence-only edges contribute nothing).
            bindings: list[dict] = [{}]
            for carries, found in zip(state.carries,
                                      candidate.edge_bindings):
                if carries:
                    bindings = [{**existing, **extra}
                                for existing in bindings for extra in found]
            if vertex.output:
                for binding in bindings:
                    binding[vertex.vertex_id] = node
            self.intermediate[state.owner] += len(bindings)
            parent = candidate.parent
            if parent is None:
                self.results[state.owner].extend(bindings)
                continue
            index = candidate.edge_index
            parent.edge_satisfied[index] = True
            if parent.state.carries[index]:
                parent.edge_bindings[index].extend(bindings)

    def finish(self, visited: int) -> list[list[dict]]:
        """Book the pass on every matcher's stats; the distinct bindings
        per matcher."""
        for matcher, results, intermediate in zip(
                self.matchers, self.results, self.intermediate):
            matcher.stats.nodes_visited += visited
            matcher.stats.intermediate_results += intermediate
            matcher.stats.solutions = len(results)
        return [_dedup_bindings(results) for results in self.results]


def _dedup_bindings(bindings: list[dict]) -> list[dict]:
    """Distinct bindings, ordered by their (sorted) node ids."""
    unique: dict[tuple, dict] = {}
    for binding in bindings:
        key = tuple(sorted(binding.items()))
        unique.setdefault(key, binding)
    return [unique[key] for key in sorted(unique)]
