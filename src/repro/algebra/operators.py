"""The logical operators of Table 1.

==============  =========  ===============================  =====================================
category        operator   signature                        description
==============  =========  ===============================  =====================================
structure-based σ_s        List -> List                     selection based on tag names
\\               ⋈_s        List x List -> List              structural join
\\               π_s        List -> NestedList               tree navigation along an axis
value-based     σ_v        List -> List                     selection based on values
\\               ⋈_v        List x List -> List              value-based join
hybrid          τ          Tree x PatternGraph -> NestedList tree pattern matching
\\               γ          NestedList x SchemaTree -> Tree  tree construction
==============  =========  ===============================  =====================================

Every operator carries its signature as data (checked at ``apply`` time by
:func:`repro.algebra.sorts.check_signature`) and a *logical* reference
implementation over :mod:`repro.xml.model` trees.  The physical operators
in :mod:`repro.physical` implement the same contracts over the storage
layer; the differential tests pin them to these semantics.

τ and γ "reside on the bottom and top of the execution plan, respectively"
— τ turns documents into nested lists, the list operators transform them,
γ renders the output document.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from repro.errors import ExecutionError
from repro.xml import model
from repro.xpath.semantics import (
    Context,
    XPathEvaluator,
    document_order_key,
    effective_boolean_value,
    number_value,
)
from repro.algebra.nested import NestedList
from repro.algebra.pattern_graph import (
    REL_ATTRIBUTE,
    REL_CHILD,
    REL_DESCENDANT,
    REL_SIBLING,
    PatternGraph,
)
from repro.algebra.schema_tree import (
    CONSTRUCTOR,
    IF_NODE,
    PLACEHOLDER,
    TEXT_NODE,
    SchemaTree,
)
from repro.algebra.sorts import Sort, check_signature

__all__ = [
    "Operator",
    "SelectTag",
    "StructuralJoin",
    "Navigate",
    "SelectValue",
    "ValueJoin",
    "TreePatternMatch",
    "Construct",
    "operator_table",
    "storage_tag",
    "compare_values",
]


def storage_tag(node: model.Node) -> str:
    """The unified tag a stored node carries (elements by name,
    ``@name`` for attributes, ``#text``/``#comment``/``?target``/
    ``#document`` for the rest) — shared vocabulary between the algebra
    and both storage engines."""
    if isinstance(node, model.Element):
        return node.tag
    if isinstance(node, model.Attribute):
        return "@" + node.attr_name
    if isinstance(node, model.Text):
        return "#text"
    if isinstance(node, model.Comment):
        return "#comment"
    if isinstance(node, model.ProcessingInstruction):
        return "?" + node.target
    if isinstance(node, model.Document):
        return "#document"
    raise ExecutionError(f"unknown node {node!r}")  # pragma: no cover


def compare_values(op: str, left: str, right) -> bool:
    """Value-constraint comparison: numeric when the literal is numeric,
    string equality otherwise (the vertex-constraint semantics of
    Definition 1)."""
    if isinstance(right, (int, float)) and not isinstance(right, bool):
        number = number_value(left)
        if number != number:
            return False
        right = float(right)
        left_value: Any = number
    else:
        left_value = left
        right = str(right)
    if op == "=":
        return left_value == right
    if op == "!=":
        return left_value != right
    if op == "<":
        return left_value < right
    if op == "<=":
        return left_value <= right
    if op == ">":
        return left_value > right
    if op == ">=":
        return left_value >= right
    raise ExecutionError(f"unknown comparison {op!r}")


@dataclass(frozen=True)
class _Signature:
    inputs: tuple[Sort, ...]
    output: Sort

    def __str__(self) -> str:
        ins = " x ".join(str(s) for s in self.inputs)
        return f"{ins} -> {self.output}"


class Operator:
    """Base class: named, categorised, signature-checked."""

    name: str = "?"
    symbol: str = "?"
    category: str = "?"
    signature: _Signature

    def apply(self, *args):
        """Type-check the inputs and run the logical implementation."""
        check_signature(self.symbol, self.signature.inputs, args)
        return self._run(*args)

    def _run(self, *args):  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"

    def describe(self) -> str:
        return self.symbol


# -- structure-based ----------------------------------------------------------------


class SelectTag(Operator):
    """σ_s — keep the nodes whose tag name is in the given set."""

    name = "structural selection"
    symbol = "sigma_s"
    category = "structure-based"
    signature = _Signature((Sort.LIST,), Sort.LIST)

    def __init__(self, tags: Iterable[str] | str):
        self.tags = frozenset({tags} if isinstance(tags, str) else tags)

    def _run(self, nodes: list) -> list:
        return [node for node in nodes if storage_tag(node) in self.tags]

    def describe(self) -> str:
        return f"sigma_s[{'|'.join(sorted(self.tags))}]"


class StructuralJoin(Operator):
    """⋈_s — join two node lists on a structural relationship.

    Returns the *descendant-side* matches (the output list a path step
    needs); ``pairs=True`` returns the joined pairs as a NestedList of
    2-tuples instead.
    """

    name = "structural join"
    symbol = "join_s"
    category = "structure-based"
    signature = _Signature((Sort.LIST, Sort.LIST), Sort.LIST)

    def __init__(self, relation: str, pairs: bool = False):
        if relation not in (REL_CHILD, REL_DESCENDANT, REL_ATTRIBUTE,
                            REL_SIBLING):
            raise ValueError(f"unknown relation {relation!r}")
        self.relation = relation
        self.pairs = pairs

    def _satisfied(self, left: model.Node, right: model.Node) -> bool:
        # Nodes compare with ==: a stored node's handles are built
        # afresh on every navigation (repro.storage.handles).
        if self.relation == REL_CHILD:
            return right.parent == left \
                and not isinstance(right, model.Attribute)
        if self.relation == REL_ATTRIBUTE:
            return isinstance(right, model.Attribute) and right.parent == left
        if self.relation == REL_DESCENDANT:
            if isinstance(right, model.Attribute):
                owner = right.parent
                return owner == left or (owner is not None
                                         and left.is_ancestor_of(owner))
            return left.is_ancestor_of(right)
        # following-sibling
        return (left.parent is not None and right.parent == left.parent
                and left.before(right))

    def _run(self, left: list, right: list):
        matched_pairs = [(a, d) for a in left for d in right
                         if self._satisfied(a, d)]
        if self.pairs:
            return NestedList.of_tuples(matched_pairs)
        seen: set[int] = set()
        output = []
        for _, descendant in matched_pairs:
            if descendant.node_id not in seen:
                seen.add(descendant.node_id)
                output.append(descendant)
        output.sort(key=document_order_key)
        return output

    def describe(self) -> str:
        return f"join_s[{self.relation}]"


class Navigate(Operator):
    """π_s — navigate one axis from every input node, keeping the
    per-input grouping (hence the NestedList output)."""

    name = "tree navigation"
    symbol = "pi_s"
    category = "structure-based"
    signature = _Signature((Sort.LIST,), Sort.NESTED_LIST)

    def __init__(self, relation: str, tags: Optional[Iterable[str]] = None):
        self.relation = relation
        self.tags = None if tags is None else frozenset(
            {tags} if isinstance(tags, str) else tags)

    def _targets(self, node: model.Node) -> Iterable[model.Node]:
        if self.relation == REL_CHILD:
            return node.children()
        if self.relation == REL_ATTRIBUTE:
            return node.attributes() if isinstance(node, model.Element) \
                else iter(())
        if self.relation == REL_DESCENDANT:
            return node.descendants()
        if self.relation == REL_SIBLING:
            return node.following_siblings()
        raise ExecutionError(f"unknown relation {self.relation!r}")

    def _run(self, nodes: list) -> NestedList:
        output = NestedList()
        for node in nodes:
            group = NestedList(
                target for target in self._targets(node)
                if self.tags is None or storage_tag(target) in self.tags)
            output.append(group)
        return output

    def describe(self) -> str:
        tags = "" if self.tags is None else "|".join(sorted(self.tags))
        return f"pi_s[{self.relation}{tags}]"


# -- value-based ----------------------------------------------------------------------


class SelectValue(Operator):
    """σ_v — keep nodes whose string value satisfies ``op literal``."""

    name = "value selection"
    symbol = "sigma_v"
    category = "value-based"
    signature = _Signature((Sort.LIST,), Sort.LIST)

    def __init__(self, op: str, literal):
        self.op = op
        self.literal = literal

    def _run(self, nodes: list) -> list:
        return [node for node in nodes
                if compare_values(self.op, node.string_value(),
                                  self.literal)]

    def describe(self) -> str:
        return f"sigma_v[. {self.op} {self.literal!r}]"


class ValueJoin(Operator):
    """⋈_v — join two node lists on their string values.

    Returns the left-side matches; ``pairs=True`` gives the 2-tuples.
    """

    name = "value join"
    symbol = "join_v"
    category = "value-based"
    signature = _Signature((Sort.LIST, Sort.LIST), Sort.LIST)

    def __init__(self, op: str = "=", pairs: bool = False):
        self.op = op
        self.pairs = pairs

    def _run(self, left: list, right: list):
        matched = [(a, b) for a in left for b in right
                   if compare_values(self.op, a.string_value(),
                                     b.string_value())]
        if self.pairs:
            return NestedList.of_tuples(matched)
        seen: set[int] = set()
        output = []
        for a, _ in matched:
            if a.node_id not in seen:
                seen.add(a.node_id)
                output.append(a)
        return output

    def describe(self) -> str:
        return f"join_v[{self.op}]"


# -- hybrid -------------------------------------------------------------------------------


class TreePatternMatch(Operator):
    """τ — find all embeddings of a pattern graph in a tree; output the
    output-vertex bindings as a nested list (Section 3.2).

    This logical implementation is a straightforward top-down matcher over
    the model tree — the specification the physical NoK / structural-join /
    TwigStack operators are tested against.
    """

    name = "tree pattern matching"
    symbol = "tau"
    category = "hybrid"
    signature = _Signature((Sort.TREE, Sort.PATTERN_GRAPH), Sort.NESTED_LIST)

    def __init__(self):
        self._reference = XPathEvaluator()

    def _run(self, tree: model.Document, pattern: PatternGraph) -> NestedList:
        outputs = [v.vertex_id for v in pattern.output_vertices()]
        rows: list[tuple] = []
        for binding in self._match(pattern, pattern.root, tree):
            rows.append(tuple(binding.get(vid) for vid in outputs))
        unique: dict[tuple, tuple] = {}
        for row in rows:
            key = tuple(node.node_id for node in row)
            unique.setdefault(key, row)
        ordered = sorted(unique.values(),
                         key=lambda row: [document_order_key(n)
                                          for n in row])
        if len(outputs) == 1:
            return NestedList(row[0] for row in ordered)
        return NestedList.of_tuples(ordered)

    # -- matching machinery ---------------------------------------------------

    def _match(self, pattern: PatternGraph, vertex_id: int,
               node: model.Node):
        """Yield output bindings for embeddings of the pattern subtree at
        ``vertex_id``, with the vertex bound to ``node``."""
        vertex = pattern.vertices[vertex_id]
        if not self._vertex_ok(vertex, node):
            return
        partials: list[dict] = [{}]
        for edge in pattern.children_of(vertex_id):
            child_bindings = []
            for candidate in self._candidates(node, edge.relation,
                                              pattern.vertices[edge.target]):
                child_bindings.extend(
                    self._match(pattern, edge.target, candidate))
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

    def _vertex_ok(self, vertex, node: model.Node) -> bool:
        if vertex.kind == "context":
            pass  # anchored externally; any node is acceptable
        elif not vertex.matches_tag(storage_tag(node)):
            return False
        for op, literal in vertex.value_constraints:
            if not compare_values(op, node.string_value(), literal):
                return False
        for expr in vertex.residual:
            value = self._reference.evaluate(expr, Context(node))
            if isinstance(value, float):
                return False  # positional residuals are not node-local
            if not effective_boolean_value(value):
                return False
        return True

    @staticmethod
    def _candidates(node: model.Node, relation: str, target_vertex):
        if relation == REL_CHILD:
            return list(node.children())
        if relation == REL_ATTRIBUTE:
            return list(node.attributes()) \
                if isinstance(node, model.Element) else []
        if relation == REL_SIBLING:
            return list(node.following_siblings())
        # descendant: include attributes of self-or-descendants when the
        # target is an attribute vertex (//@x semantics).
        if target_vertex.kind == "attribute":
            owners = [node] + list(node.descendants())
            out = []
            for owner in owners:
                if isinstance(owner, model.Element):
                    out.extend(owner.attributes())
            return out
        return list(node.descendants())


class Construct(Operator):
    """γ — instantiate a SchemaTree over a NestedList of variable
    bindings, producing the output Tree.

    The expression service (placeholder/ϕ evaluation) is injected so the
    operator itself stays purely structural: ``evaluate(expr, binding)``
    returns a sequence; ``expand(phi, binding)`` enumerates the child
    bindings a ϕ-labelled arc generates.
    """

    name = "construction"
    symbol = "gamma"
    category = "hybrid"
    signature = _Signature((Sort.NESTED_LIST, Sort.SCHEMA_TREE), Sort.TREE)

    def __init__(self, evaluate: Callable[[Any, dict], list],
                 expand: Optional[Callable[[Any, dict], Iterable[dict]]] = None):
        self.evaluate = evaluate
        self.expand = expand

    def _run(self, bindings: NestedList, schema: SchemaTree) -> model.Document:
        if schema.root is None:
            raise ExecutionError("schema tree is empty")
        rows = list(bindings) or [{}]
        document = model.Document()
        for row in rows:
            binding = row if isinstance(row, dict) else {}
            node = self._instantiate(schema.root, binding)
            if node is not None:
                document.append(node)
        return document

    def _instantiate(self, schema_node, binding: dict):
        if schema_node.kind == TEXT_NODE:
            return model.Text(schema_node.text or "")
        if schema_node.kind == IF_NODE:
            from repro.xpath.semantics import sequence_boolean
            condition = self.evaluate(schema_node.expr, binding)
            branch = schema_node.children[0] \
                if sequence_boolean(condition) \
                else schema_node.children[1]
            return self._instantiate(branch, binding)
        if schema_node.kind == PLACEHOLDER:
            container = model.Element("#placeholder")
            self._insert_sequence(container, schema_node.expr, binding)
            return container
        if schema_node.kind != CONSTRUCTOR:  # pragma: no cover
            raise ExecutionError(f"bad schema node {schema_node.kind}")
        element = model.Element(schema_node.label)
        for name, template in schema_node.attributes:
            value = self.evaluate(template, binding)
            element.set_attribute(name, _sequence_text(value))
        for child in schema_node.children:
            if child.edge_expr is not None:
                if self.expand is None:
                    raise ExecutionError(
                        "schema tree has a phi arc but no expand service")
                for child_binding in self.expand(child.edge_expr, binding):
                    merged = dict(binding, **child_binding)
                    self._append_child(element, child, merged)
            else:
                self._append_child(element, child, binding)
        return element

    def _append_child(self, element, schema_node, binding: dict) -> None:
        node = self._instantiate(schema_node, binding)
        if node is None:
            return
        if isinstance(node, model.Element) and node.tag == "#placeholder":
            # Splice placeholder results directly into the parent.
            for attribute in list(node.attributes()):
                element.set_attribute(attribute.attr_name, attribute.value)
            for child in list(node.children()):
                node.remove(child)
                element.append(child)
            return
        element.append(node)

    def _insert_sequence(self, element: model.Element, expr,
                         binding: dict) -> None:
        from repro.xquery.interpreter import clone_node

        items = self.evaluate(expr, binding)
        pending: list[str] = []

        def flush() -> None:
            if pending:
                element.append_text(" ".join(pending))
                pending.clear()

        for item in (items if isinstance(items, list) else [items]):
            if isinstance(item, model.Attribute):
                flush()
                element.set_attribute(item.attr_name, item.value)
            elif isinstance(item, model.Document):
                flush()
                for child in item.children():
                    element.append(clone_node(child))
            elif isinstance(item, model.Node):
                flush()
                element.append(clone_node(item))
            else:
                from repro.xpath.semantics import string_value
                pending.append(item if isinstance(item, str)
                               else string_value(item))
        flush()


def _sequence_text(value) -> str:
    from repro.xpath.semantics import string_value

    items = value if isinstance(value, list) else [value]
    return " ".join(
        string_value([item]) if isinstance(item, model.Node)
        else string_value(item) for item in items)


def operator_table() -> list[dict[str, str]]:
    """The live Table 1: one row per operator, generated from the
    classes (the T1 bench prints this in the paper's layout)."""
    samples: list[Operator] = [
        SelectTag("a"),
        StructuralJoin(REL_CHILD),
        Navigate(REL_CHILD),
        SelectValue("=", "x"),
        ValueJoin("="),
        TreePatternMatch(),
        Construct(evaluate=lambda expr, binding: []),
    ]
    return [{
        "category": op.category,
        "operator": op.symbol,
        "signature": str(op.signature),
        "description": op.name,
    } for op in samples]
