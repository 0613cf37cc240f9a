"""Unit + property tests for the B+ tree (vs a sorted-dict model)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.btree import BPlusTree, _Internal
from repro.storage.pages import PageManager


class TestBasics:
    def test_empty_tree(self):
        tree = BPlusTree()
        assert len(tree) == 0
        assert tree.search("anything") == []
        assert list(tree.items()) == []

    def test_order_validation(self):
        with pytest.raises(ValueError):
            BPlusTree(order=2)

    def test_insert_and_search(self):
        tree = BPlusTree(order=4)
        for key in [5, 3, 8, 1, 9, 7]:
            tree.insert(key, f"v{key}")
        assert tree.search(8) == ["v8"]
        assert tree.search(4) == []

    def test_duplicate_keys_accumulate(self):
        tree = BPlusTree(order=4)
        tree.insert("k", 1)
        tree.insert("k", 2)
        assert tree.search("k") == [1, 2]
        assert len(tree) == 2

    def test_splits_grow_height(self):
        tree = BPlusTree(order=4)
        for key in range(100):
            tree.insert(key, key)
        assert tree.height >= 3
        assert all(tree.search(key) == [key] for key in range(100))

    def test_range_query(self):
        tree = BPlusTree(order=4)
        for key in range(0, 50, 2):
            tree.insert(key, key * 10)
        result = list(tree.range(10, 20))
        assert result == [(10, 100), (12, 120), (14, 140), (16, 160),
                          (18, 180), (20, 200)]

    def test_range_bounds_exclusive(self):
        tree = BPlusTree(order=4)
        for key in range(10):
            tree.insert(key, key)
        inner = [k for k, _ in tree.range(2, 5, include_low=False,
                                          include_high=False)]
        assert inner == [3, 4]

    def test_items_sorted(self):
        tree = BPlusTree(order=4)
        import random
        rng = random.Random(7)
        keys = list(range(200))
        rng.shuffle(keys)
        for key in keys:
            tree.insert(key, key)
        assert [k for k, _ in tree.items()] == sorted(keys)


class TestBulkLoad:
    def test_bulk_load_sorted_pairs(self):
        pairs = [(f"k{index:04d}", index) for index in range(500)]
        tree = BPlusTree.bulk_load(pairs, order=8)
        assert len(tree) == 500
        assert tree.search("k0123") == [123]
        assert tree.search("missing") == []

    def test_bulk_load_with_duplicates(self):
        pairs = [("a", 1), ("a", 2), ("b", 3)]
        tree = BPlusTree.bulk_load(pairs)
        assert tree.search("a") == [1, 2]
        assert tree.search("b") == [3]

    def test_bulk_load_unsorted_rejected(self):
        with pytest.raises(ValueError):
            BPlusTree.bulk_load([("b", 1), ("a", 2)])

    def test_bulk_load_empty(self):
        tree = BPlusTree.bulk_load([])
        assert len(tree) == 0

    def test_insert_after_bulk_load(self):
        pairs = [(index, index) for index in range(0, 100, 2)]
        tree = BPlusTree.bulk_load(pairs, order=8)
        for key in range(1, 100, 2):
            tree.insert(key, key)
        assert [k for k, _ in tree.items()] == list(range(100))


class TestIOCharging:
    def test_search_charges_height_pages(self):
        pages = PageManager()
        segment = pages.segment("btree")
        tree = BPlusTree.bulk_load([(i, i) for i in range(2000)],
                                   order=8, segment=segment)
        pages.reset()
        tree.search(777)
        counters = pages.counters.snapshot()
        touched = counters["page_reads"] + counters["pool_hits"]
        assert touched == tree.height

    def test_repeated_search_hits_pool(self):
        pages = PageManager()
        segment = pages.segment("btree")
        tree = BPlusTree.bulk_load([(i, i) for i in range(500)],
                                   order=8, segment=segment)
        pages.reset()
        tree.search(100)
        first_reads = pages.counters.page_reads
        tree.search(100)
        assert pages.counters.page_reads == first_reads  # all pool hits


# -- property tests ------------------------------------------------------------

@given(st.lists(st.tuples(st.integers(-1000, 1000), st.integers()),
                max_size=300),
       st.integers(min_value=4, max_value=16))
@settings(max_examples=40, deadline=None)
def test_matches_dict_model(pairs, order):
    tree = BPlusTree(order=order)
    model: dict[int, list[int]] = {}
    for key, value in pairs:
        tree.insert(key, value)
        model.setdefault(key, []).append(value)
    for key, values in model.items():
        assert tree.search(key) == values
    assert [k for k, _ in tree.items()] == sorted(
        k for k, vs in model.items() for _ in vs)


@given(st.lists(st.integers(0, 500), min_size=1, max_size=300, unique=True),
       st.integers(0, 500), st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_range_matches_model(keys, low, high):
    low, high = min(low, high), max(low, high)
    tree = BPlusTree.bulk_load([(k, k) for k in sorted(keys)], order=8)
    expected = sorted(k for k in keys if low <= k <= high)
    assert [k for k, _ in tree.range(low, high)] == expected


# -- persistence: a fork and its origin never see each other's inserts ----------

def _model_items(model: dict) -> list:
    return [(key, value) for key in sorted(model) for value in model[key]]


def _assert_matches(tree: BPlusTree, model: dict, low: int,
                    high: int) -> None:
    assert list(tree.items()) == _model_items(model)
    assert len(tree) == sum(len(values) for values in model.values())
    for key, values in model.items():
        assert tree.search(key) == values
    assert list(tree.range(low, high)) == [
        (key, value) for key, value in _model_items(model)
        if low <= key <= high]


@given(st.lists(st.tuples(st.integers(-300, 300), st.integers()),
                max_size=200),
       st.lists(st.tuples(st.integers(-300, 300), st.integers()),
                max_size=200),
       st.lists(st.tuples(st.integers(-300, 300), st.integers()),
                max_size=60),
       st.integers(min_value=4, max_value=8),
       st.integers(-300, 300), st.integers(-300, 300))
@settings(max_examples=60, deadline=None)
def test_fork_inserts_leave_the_original_unchanged(base, forked, later,
                                                   order, low, high):
    low, high = min(low, high), max(low, high)
    tree = BPlusTree(order=order)
    original: dict[int, list[int]] = {}
    for key, value in base:
        tree.insert(key, value)
        original.setdefault(key, []).append(value)
    fork = tree.fork()
    both = {key: list(values) for key, values in original.items()}
    for key, value in forked:
        fork.insert(key, value)
        both.setdefault(key, []).append(value)
    # The original keeps growing on its own; the fork must not see it.
    for key, value in later:
        tree.insert(key, value)
        original.setdefault(key, []).append(value)
    _assert_matches(tree, original, low, high)
    _assert_matches(fork, both, low, high)


@given(st.lists(st.tuples(st.integers(0, 400), st.integers()),
                min_size=1, max_size=200),
       st.integers(min_value=4, max_value=8))
@settings(max_examples=40, deadline=None)
def test_forked_bulk_load_shares_nothing_it_changes(inserted, order):
    pairs = [(key, key) for key in range(0, 400, 3)]
    tree = BPlusTree.bulk_load(pairs, order=order)
    fork = tree.fork()
    model: dict[int, list[int]] = {key: [key] for key, _ in pairs}
    both = {key: list(values) for key, values in model.items()}
    for key, value in inserted:
        fork.insert(key, value)
        both.setdefault(key, []).append(value)
    _assert_matches(tree, model, 0, 400)
    _assert_matches(fork, both, 0, 400)


def _leaf_keys(tree: BPlusTree) -> list[list]:
    """Each leaf's keys, in key order."""
    leaves, stack = [], [tree._root]
    while stack:
        node = stack.pop()
        if isinstance(node, _Internal):
            stack.extend(reversed(node.children))
        else:
            leaves.append(node.keys)
    return leaves


@given(st.lists(st.integers(0, 2000), min_size=40, max_size=400,
                unique=True),
       st.integers(min_value=4, max_value=8),
       st.integers(-10, 2010), st.integers(-10, 2010))
@settings(max_examples=40, deadline=None)
def test_range_charges_descent_plus_further_leaves(keys, order, low, high):
    """A range scan touches the root-to-leaf path for ``low`` plus one
    page per further leaf it reaches (the leaf whose first key already
    exceeds ``high`` included; no internal node is charged twice)."""
    low, high = min(low, high), max(low, high)
    pages = PageManager(pool_pages=4096)
    tree = BPlusTree(order=order, segment=pages.segment("btree"))
    for key in keys:
        tree.insert(key, key)
    leaves = _leaf_keys(tree)
    assert len(leaves) > 2
    # The descent for ``low`` ends in the last leaf whose first key is
    # <= low (or the first leaf); the scan then reaches every later leaf
    # up to the first one holding a key > high.
    first = max([index for index, leaf in enumerate(leaves)
                 if leaf[0] <= low], default=0)
    last = first
    while last + 1 < len(leaves) and leaves[last][-1] <= high:
        last += 1
    pages.reset()
    got = [key for key, _ in tree.range(low, high)]
    assert got == sorted(key for key in keys if low <= key <= high)
    counters = pages.counters.snapshot()
    touched = counters["page_reads"] + counters["pool_hits"]
    assert touched == tree.height + (last - first)
