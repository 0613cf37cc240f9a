"""Unit + property tests for balanced-parentheses navigation.

The property tests generate random trees, encode them as BP, and check
every navigation primitive against the pointer-based tree.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.balanced_parens import BalancedParens
from repro.storage.bitvector import BitVector


def bp_from_string(text: str) -> BalancedParens:
    return BalancedParens(BitVector.from_bits(
        [1 if ch == "(" else 0 for ch in text]))


class TestValidation:
    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            bp_from_string("(()")

    def test_unbalanced_counts_rejected(self):
        with pytest.raises(ValueError):
            bp_from_string("(((())")

    def test_wrong_position_kind_rejected(self):
        bp = bp_from_string("(())")
        with pytest.raises(ValueError):
            bp.find_close(3)
        with pytest.raises(ValueError):
            bp.find_open(0)
        with pytest.raises(ValueError):
            bp.enclose(3)


class TestSmallTree:
    # ((()())())  =  root with children a (two leaf kids) and b (leaf)
    BP = "((()())())"

    def test_find_close(self):
        bp = bp_from_string(self.BP)
        assert bp.find_close(0) == 9
        assert bp.find_close(1) == 6
        assert bp.find_close(2) == 3
        assert bp.find_close(7) == 8

    def test_find_open_inverts(self):
        bp = bp_from_string(self.BP)
        for open_pos in (0, 1, 2, 4, 7):
            assert bp.find_open(bp.find_close(open_pos)) == open_pos

    def test_enclose(self):
        bp = bp_from_string(self.BP)
        assert bp.enclose(0) is None
        assert bp.enclose(1) == 0
        assert bp.enclose(2) == 1
        assert bp.enclose(4) == 1
        assert bp.enclose(7) == 0

    def test_children(self):
        bp = bp_from_string(self.BP)
        assert list(bp.children(0)) == [1, 7]
        assert list(bp.children(1)) == [2, 4]
        assert list(bp.children(2)) == []

    def test_first_child_and_sibling(self):
        bp = bp_from_string(self.BP)
        assert bp.first_child(0) == 1
        assert bp.next_sibling(1) == 7
        assert bp.next_sibling(7) is None
        assert bp.first_child(2) is None

    def test_depth_and_size(self):
        bp = bp_from_string(self.BP)
        assert bp.depth(0) == 0
        assert bp.depth(2) == 2
        assert bp.subtree_size(0) == 5
        assert bp.subtree_size(1) == 3
        assert bp.is_leaf(2)
        assert not bp.is_leaf(1)

    def test_preorder_position_round_trip(self):
        bp = bp_from_string(self.BP)
        for rank in range(bp.node_count):
            assert bp.preorder(bp.position(rank)) == rank

    def test_postorder(self):
        bp = bp_from_string(self.BP)
        # Nodes in postorder: leaf@2, leaf@4, a@1, b@7, root@0.
        assert bp.postorder(2) == 0
        assert bp.postorder(4) == 1
        assert bp.postorder(1) == 2
        assert bp.postorder(7) == 3
        assert bp.postorder(0) == 4

    def test_is_ancestor(self):
        bp = bp_from_string(self.BP)
        assert bp.is_ancestor(0, 4)
        assert bp.is_ancestor(1, 2)
        assert not bp.is_ancestor(1, 7)
        assert not bp.is_ancestor(2, 2)


# -- random tree property tests --------------------------------------------


class _RefNode:
    def __init__(self):
        self.children = []
        self.parent = None
        self.open_pos = None


@st.composite
def random_trees(draw):
    """A random tree as a pointer structure with 1..120 nodes."""
    count = draw(st.integers(min_value=1, max_value=120))
    root = _RefNode()
    nodes = [root]
    for _ in range(count - 1):
        parent = nodes[draw(st.integers(0, len(nodes) - 1))]
        child = _RefNode()
        child.parent = parent
        parent.children.append(child)
        nodes.append(child)
    return root


def encode(root: _RefNode) -> list[int]:
    bits: list[int] = []

    def walk(node):
        node.open_pos = len(bits)
        bits.append(1)
        for child in node.children:
            walk(child)
        bits.append(0)

    walk(root)
    return bits


def all_nodes(root: _RefNode):
    yield root
    for child in root.children:
        yield from all_nodes(child)


@given(random_trees())
@settings(max_examples=60, deadline=None)
def test_navigation_matches_pointer_tree(root):
    bp = BalancedParens(BitVector.from_bits(encode(root)))
    for node in all_nodes(root):
        pos = node.open_pos
        if node.parent is None:
            assert bp.enclose(pos) is None
        else:
            assert bp.enclose(pos) == node.parent.open_pos
        expected_children = [c.open_pos for c in node.children]
        assert list(bp.children(pos)) == expected_children
        if node.children:
            assert bp.first_child(pos) == node.children[0].open_pos
        else:
            assert bp.first_child(pos) is None
        assert bp.subtree_size(pos) == sum(1 for _ in all_nodes(node))


@given(random_trees())
@settings(max_examples=40, deadline=None)
def test_excess_depth_matches_pointer_tree(root):
    bp = BalancedParens(BitVector.from_bits(encode(root)))
    for node in all_nodes(root):
        depth = 0
        walker = node
        while walker.parent is not None:
            depth += 1
            walker = walker.parent
        assert bp.depth(node.open_pos) == depth


def reference_directory(bits: list[int]):
    """Per 64-bit word: (total, min, max) running excess, the empty
    prefix included — walked one bit at a time."""
    directory = []
    for start in range(0, len(bits), 64):
        excess = low = high = 0
        for bit in bits[start:start + 64]:
            excess += 1 if bit else -1
            low = min(low, excess)
            high = max(high, excess)
        directory.append((excess, low, high))
    return directory


def assert_directory_matches(bits: list[int]) -> None:
    bp = BalancedParens(BitVector.from_bits(bits))
    assert list(zip(bp._word_total, bp._word_min, bp._word_max)) \
        == reference_directory(bits)


@given(random_trees())
@settings(max_examples=60, deadline=None)
def test_excess_directory_matches_bit_reference(root):
    assert_directory_matches(encode(root))


@pytest.mark.parametrize("bits", [
    [1] * 1000 + [0] * 1000,            # 31 full words + a 16-bit tail
    [1, 0] * 64,                        # exactly two full words
    [1] + [1, 0] * 100 + [0],           # 202 bits: partial final word
    [1] * 32 + [0] * 32,                # one word, excess peaks mid-word
], ids=["path", "two-words", "wide", "one-word"])
def test_excess_directory_shapes(bits):
    assert_directory_matches(bits)


def test_deep_tree_crossing_many_words():
    # A path of 1000 nodes: exercises word and directory skipping.
    depth = 1000
    bits = [1] * depth + [0] * depth
    bp = BalancedParens(BitVector.from_bits(bits))
    assert bp.find_close(0) == 2 * depth - 1
    assert bp.find_close(depth - 1) == depth
    assert bp.find_open(2 * depth - 1) == 0
    assert bp.enclose(depth - 1) == depth - 2
    assert bp.subtree_size(0) == depth


def test_wide_tree_crossing_many_words():
    fanout = 1000
    bits = [1] + [1, 0] * fanout + [0]
    bp = BalancedParens(BitVector.from_bits(bits))
    children = list(bp.children(0))
    assert len(children) == fanout
    assert all(bp.enclose(c) == 0 for c in children[::97])


@given(random_trees())
@settings(max_examples=40, deadline=None)
def test_postorder_and_find_open_invert(root):
    bp = BalancedParens(BitVector.from_bits(encode(root)))
    nodes = list(all_nodes(root))
    # Post-order ranks form a permutation consistent with subtree closure.
    posts = {node.open_pos: bp.postorder(node.open_pos) for node in nodes}
    assert sorted(posts.values()) == list(range(len(nodes)))
    for node in nodes:
        close = bp.find_close(node.open_pos)
        assert bp.find_open(close) == node.open_pos
        for child in node.children:
            assert posts[child.open_pos] < posts[node.open_pos]


def test_size_bytes_scales_with_length():
    small = bp_from_string("()" * 8)
    large = bp_from_string("()" * 8000)
    assert small.size_bytes() < large.size_bytes()
    # ~2 bits + directory per node: far below a pointer representation.
    assert large.size_bytes() < 8000 * 8
