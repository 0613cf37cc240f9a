"""Reference evaluator: direct XPath-1.0-style semantics over model trees.

This is the specification the whole engine is tested against.  It is a
plain node-at-a-time interpreter over :mod:`repro.xml.model` — no indexes,
no storage, no cleverness — so its results are easy to trust.  The
differential test-suite checks every physical strategy (NoK, structural
joins, TwigStack, navigational) against it on randomized documents and
queries.

Value domain (XPath 1.0): node-sets (lists in document order, no
duplicates), booleans, numbers (Python floats), and strings.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Union

from repro.errors import ExecutionError, QueryTypeError
from repro.xml import model
from repro.xpath import ast

__all__ = ["evaluate_xpath", "Context", "document_order_key",
           "effective_boolean_value", "sequence_boolean", "string_value",
           "number_value"]

Value = Union[list, bool, float, str]


class Context:
    """Evaluation context: the context node, its position/size within the
    current node list (1-based, for positional predicates), and variable
    bindings (used when XQuery embeds path expressions)."""

    __slots__ = ("node", "position", "size", "variables")

    def __init__(self, node: model.Node, position: int = 1, size: int = 1,
                 variables: Optional[dict] = None):
        self.node = node
        self.position = position
        self.size = size
        self.variables = variables if variables is not None else {}

    def with_node(self, node: model.Node, position: int,
                  size: int) -> "Context":
        return Context(node, position, size, self.variables)


def document_order_key(node: model.Node) -> tuple:
    """Total order over nodes including attributes (which the tree model
    does not pre-index): attributes sort directly after their owner."""
    if isinstance(node, model.Attribute):
        owner = node.parent
        index = 0
        if owner is not None:
            for index, attribute in enumerate(owner.attributes()):
                if attribute == node:
                    break
            return (owner.pre, 1, index)
        return (-1, 1, 0)
    return (node.pre, 0, 0)


def _unique_in_document_order(nodes: Iterable[model.Node]) -> list:
    seen: set[int] = set()
    unique = []
    for node in nodes:
        if node.node_id not in seen:
            seen.add(node.node_id)
            unique.append(node)
    try:
        unique.sort(key=document_order_key)
    except ValueError:
        # Detached fragments have no document-wide pre ranks; order by a
        # one-off walk of each fragment instead.
        order = _fragment_order(unique)
        unique.sort(key=lambda node: order[node.node_id])
    return unique


def _fragment_order(nodes: list) -> dict[int, tuple[int, int]]:
    """``node_id -> (fragment index, pre-order position)`` for nodes in
    detached fragments (and attached ones, uniformly)."""
    roots: list[model.Node] = []
    root_ids: set[int] = set()
    for node in nodes:
        top = node.parent if isinstance(node, model.Attribute) else node
        while top is not None and top.parent is not None:
            top = top.parent
        if top is not None and top.node_id not in root_ids:
            root_ids.add(top.node_id)
            roots.append(top)
    order: dict[int, tuple[int, int]] = {}
    for fragment_index, root in enumerate(roots):
        position = 0
        for walked in root.descendant_or_self():
            order[walked.node_id] = (fragment_index, position)
            position += 1
            if isinstance(walked, model.Element):
                for attribute in walked.attributes():
                    order[attribute.node_id] = (fragment_index, position)
                    position += 1
    return order


# -- type conversions -----------------------------------------------------------


def string_value(value: Value) -> str:
    """XPath string() conversion.  Sequences convert through their first
    item, which may be a node or (in XQuery) an atomic value."""
    if isinstance(value, list):
        if not value:
            return ""
        first = value[0]
        if isinstance(first, model.Node):
            return first.string_value()
        return string_value(first)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if value != value:  # NaN
            return "NaN"
        if value == int(value):
            return str(int(value))
        return repr(value)
    return value


def number_value(value: Value) -> float:
    """XPath number() conversion (NaN on failure)."""
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, float):
        return value
    text = string_value(value).strip()
    try:
        return float(text)
    except ValueError:
        return float("nan")


def effective_boolean_value(value: Value) -> bool:
    """XPath boolean() conversion."""
    if isinstance(value, list):
        return bool(value)
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return value == value and value != 0.0
    return bool(value)


def sequence_boolean(sequence) -> bool:
    """XQuery effective boolean value of a *sequence*: empty is false, a
    sequence starting with a node is true, a singleton atomic converts,
    anything longer is true.  (Plain ``effective_boolean_value`` treats
    any non-empty list as true, which is wrong for ``[False]`` results
    wrapped by sequence-returning evaluators.)"""
    if not isinstance(sequence, list):
        return effective_boolean_value(sequence)
    if not sequence:
        return False
    first = sequence[0]
    if isinstance(first, model.Node):
        return True
    if len(sequence) == 1:
        return effective_boolean_value(first)
    return True


# -- axes -------------------------------------------------------------------------


def _axis_nodes(node: model.Node, axis: ast.Axis) -> Iterable[model.Node]:
    if axis is ast.Axis.CHILD:
        return node.children()
    if axis is ast.Axis.DESCENDANT:
        return node.descendants()
    if axis is ast.Axis.DESCENDANT_OR_SELF:
        return node.descendant_or_self()
    if axis is ast.Axis.SELF:
        return iter((node,))
    if axis is ast.Axis.PARENT:
        return iter(()) if node.parent is None else iter((node.parent,))
    if axis is ast.Axis.ATTRIBUTE:
        if isinstance(node, model.Element):
            return node.attributes()
        return iter(())
    if axis is ast.Axis.FOLLOWING_SIBLING:
        return node.following_siblings()
    raise ExecutionError(f"unsupported axis {axis}")  # pragma: no cover


def _test_matches(test: ast.NodeTest, node: model.Node,
                  axis: ast.Axis) -> bool:
    if isinstance(test, ast.KindTest):
        if test.kind == "node":
            return True
        if test.kind == "text":
            return isinstance(node, model.Text)
        if test.kind == "comment":
            return isinstance(node, model.Comment)
        raise ExecutionError(f"unknown kind test {test.kind}")
    principal_attribute = axis is ast.Axis.ATTRIBUTE
    if principal_attribute:
        if not isinstance(node, model.Attribute):
            return False
        if isinstance(test, ast.WildcardTest):
            return True
        return node.attr_name == test.name
    if not isinstance(node, model.Element):
        return False
    if isinstance(test, ast.WildcardTest):
        return True
    return node.tag == test.name


# -- the evaluator -------------------------------------------------------------------


class XPathEvaluator:
    """Evaluates AST expressions; subclassed by the XQuery interpreter."""

    def evaluate(self, expr: ast.Expr, context: Context) -> Value:
        if isinstance(expr, ast.LocationPath):
            return self.evaluate_path(expr, context)
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.ContextItem):
            return [context.node]
        if isinstance(expr, ast.BinaryOp):
            return self.evaluate_binary(expr, context)
        if isinstance(expr, ast.UnaryOp):
            return -number_value(self.evaluate(expr.operand, context))
        if isinstance(expr, ast.FunctionCall):
            return self.evaluate_function(expr, context)
        if isinstance(expr, ast.Union_):
            left = self.evaluate(expr.left, context)
            right = self.evaluate(expr.right, context)
            if not isinstance(left, list) or not isinstance(right, list):
                raise QueryTypeError("union requires node-set operands")
            return _unique_in_document_order(left + right)
        raise ExecutionError(f"cannot evaluate {expr!r}")

    # -- paths ----------------------------------------------------------------

    def evaluate_path(self, path: ast.LocationPath,
                      context: Context) -> list:
        if path.absolute:
            document = context.node.document
            if document is None:
                raise ExecutionError(
                    "absolute path evaluated on a detached node")
            nodes: list = [document]
        else:
            nodes = [context.node]
        for step in path.steps:
            nodes = self.evaluate_step(step, nodes, context)
        return nodes

    def evaluate_step(self, step: ast.Step, nodes: list,
                      context: Context) -> list:
        gathered: list = []
        for node in nodes:
            candidates = [candidate
                          for candidate in _axis_nodes(node, step.axis)
                          if _test_matches(step.test, candidate, step.axis)]
            for predicate in step.predicates:
                candidates = self.filter_predicate(predicate, candidates,
                                                   context)
            gathered.extend(candidates)
        return _unique_in_document_order(gathered)

    def filter_predicate(self, predicate: ast.Expr, candidates: list,
                         context: Context) -> list:
        kept = []
        size = len(candidates)
        for position, candidate in enumerate(candidates, start=1):
            inner = context.with_node(candidate, position, size)
            value = self.evaluate(predicate, inner)
            if isinstance(value, float):
                # Numeric predicate selects by position: [2] == [position()=2]
                if value == position:
                    kept.append(candidate)
            elif effective_boolean_value(value):
                kept.append(candidate)
        return kept

    # -- operators ---------------------------------------------------------------

    def evaluate_binary(self, expr: ast.BinaryOp, context: Context) -> Value:
        op = expr.op
        if op == "and":
            return (effective_boolean_value(self.evaluate(expr.left, context))
                    and effective_boolean_value(
                        self.evaluate(expr.right, context)))
        if op == "or":
            return (effective_boolean_value(self.evaluate(expr.left, context))
                    or effective_boolean_value(
                        self.evaluate(expr.right, context)))
        left = self.evaluate(expr.left, context)
        right = self.evaluate(expr.right, context)
        if op in ("=", "!=", "<", "<=", ">", ">="):
            return _compare(op, left, right)
        lnum, rnum = number_value(left), number_value(right)
        if op == "+":
            return lnum + rnum
        if op == "-":
            return lnum - rnum
        if op == "*":
            return lnum * rnum
        if op == "div":
            if rnum == 0:
                return float("inf") if lnum > 0 else (
                    float("-inf") if lnum < 0 else float("nan"))
            return lnum / rnum
        if op == "mod":
            if rnum == 0:
                return float("nan")
            import math
            return math.fmod(lnum, rnum)
        raise ExecutionError(f"unknown operator {op}")

    # -- functions ------------------------------------------------------------------

    def evaluate_function(self, call: ast.FunctionCall,
                          context: Context) -> Value:
        handler = _FUNCTIONS.get(call.name)
        if handler is None:
            raise QueryTypeError(f"unknown function {call.name}()")
        args = [self.evaluate(arg, context) for arg in call.args]
        return handler(self, context, args, call)


def _node_set(value: Value, name: str) -> list:
    if not isinstance(value, list):
        raise QueryTypeError(f"{name}() requires a node-set argument")
    return value


def _fn_count(ev, ctx, args, call):
    return float(len(_node_set(args[0], "count")))


def _fn_position(ev, ctx, args, call):
    return float(ctx.position)


def _fn_last(ev, ctx, args, call):
    return float(ctx.size)


def _fn_not(ev, ctx, args, call):
    return not effective_boolean_value(args[0])


def _fn_true(ev, ctx, args, call):
    return True


def _fn_false(ev, ctx, args, call):
    return False


def _fn_string(ev, ctx, args, call):
    if not args:
        return context_string(ctx)
    return string_value(args[0])


def context_string(ctx: Context) -> str:
    return ctx.node.string_value()


def _fn_number(ev, ctx, args, call):
    if not args:
        return number_value([ctx.node])
    return number_value(args[0])


def _fn_boolean(ev, ctx, args, call):
    return effective_boolean_value(args[0])


def _fn_concat(ev, ctx, args, call):
    if len(args) < 2:
        raise QueryTypeError("concat() needs at least two arguments")
    return "".join(string_value(a) for a in args)


def _fn_contains(ev, ctx, args, call):
    return string_value(args[1]) in string_value(args[0])


def _fn_starts_with(ev, ctx, args, call):
    return string_value(args[0]).startswith(string_value(args[1]))


def _fn_string_length(ev, ctx, args, call):
    if not args:
        return float(len(ctx.node.string_value()))
    return float(len(string_value(args[0])))


def _fn_normalize_space(ev, ctx, args, call):
    text = (ctx.node.string_value() if not args else string_value(args[0]))
    return " ".join(text.split())


def _fn_substring(ev, ctx, args, call):
    text = string_value(args[0])
    start = round(number_value(args[1]))
    if len(args) > 2:
        length = round(number_value(args[2]))
        return text[max(0, start - 1):max(0, start - 1 + length)]
    return text[max(0, start - 1):]


def _fn_sum(ev, ctx, args, call):
    return float(sum(number_value([node])
                     for node in _node_set(args[0], "sum")))


def _fn_name(ev, ctx, args, call):
    if args:
        nodes = _node_set(args[0], "name")
        if not nodes:
            return ""
        return nodes[0].name or ""
    return ctx.node.name or ""


def _fn_floor(ev, ctx, args, call):
    import math
    return float(math.floor(number_value(args[0])))


def _fn_ceiling(ev, ctx, args, call):
    import math
    return float(math.ceil(number_value(args[0])))


def _fn_round(ev, ctx, args, call):
    import math
    return float(math.floor(number_value(args[0]) + 0.5))


_FUNCTIONS: dict[str, Callable] = {
    "count": _fn_count,
    "position": _fn_position,
    "last": _fn_last,
    "not": _fn_not,
    "true": _fn_true,
    "false": _fn_false,
    "string": _fn_string,
    "number": _fn_number,
    "boolean": _fn_boolean,
    "concat": _fn_concat,
    "contains": _fn_contains,
    "starts-with": _fn_starts_with,
    "string-length": _fn_string_length,
    "normalize-space": _fn_normalize_space,
    "substring": _fn_substring,
    "sum": _fn_sum,
    "name": _fn_name,
    "floor": _fn_floor,
    "ceiling": _fn_ceiling,
    "round": _fn_round,
}


def _item_value(item) -> Union[str, float, bool]:
    """Atomise one sequence item: nodes become their string value,
    atomics (str/float/bool — XQuery sequences mix them in) pass through."""
    if isinstance(item, model.Node):
        return item.string_value()
    if isinstance(item, (str, float, bool, int)):
        return float(item) if isinstance(item, int) \
            and not isinstance(item, bool) else item
    raise QueryTypeError(f"cannot atomise {item!r}")


def _compare(op: str, left: Value, right: Value) -> bool:
    """XPath 1.0 comparison semantics (existential over sequences)."""
    if isinstance(left, list) and isinstance(right, list):
        return any(_compare_scalar(op, _item_value(a), _item_value(b))
                   for a in left for b in right)
    if isinstance(left, list):
        return any(_compare_scalar(op, _item_value(a), right) for a in left)
    if isinstance(right, list):
        return any(_compare_scalar(op, left, _item_value(b)) for b in right)
    return _compare_scalar(op, left, right)


def _compare_scalar(op: str, left, right) -> bool:
    """Comparison of two atomic values per the XPath 1.0 coercion table."""
    if isinstance(left, bool) or isinstance(right, bool):
        return _ordered(op, float(effective_boolean_value(left)),
                        float(effective_boolean_value(right)))
    if isinstance(left, float) or isinstance(right, float):
        return _ordered(op, number_value(left), number_value(right))
    if op in ("=", "!="):
        return (left == right) if op == "=" else (left != right)
    return _ordered(op, number_value(left), number_value(right))


def _ordered(op: str, left: float, right: float) -> bool:
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    return left >= right


def evaluate_xpath(expr_or_text, context_node: model.Node,
                   variables: Optional[dict] = None) -> Value:
    """Evaluate an XPath expression (text or AST) with ``context_node`` as
    the context item.  Returns a node-set (list), bool, float, or str."""
    from repro.xpath.parser import parse_xpath

    expr = (parse_xpath(expr_or_text) if isinstance(expr_or_text, str)
            else expr_or_text)
    context = Context(context_node, variables=variables)
    return XPathEvaluator().evaluate(expr, context)
