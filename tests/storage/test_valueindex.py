"""ContentIndex: stable content-id keys, tombstone skipping, incremental
adds, and self-compaction."""

import pytest

from repro.storage.content import ContentStore
from repro.storage.valueindex import ContentIndex, numeric_key


@pytest.fixture
def store():
    content = ContentStore()
    content.append("alpha", 2)
    content.append("42", 4)
    content.append("alpha", 6)
    content.append("9", 8)
    return content


class TestStringIndex:
    def test_search_returns_owner_preorders(self, store):
        index = ContentIndex(store)
        assert sorted(index.search("alpha")) == [2, 6]
        assert index.search("42") == [4]
        assert index.search("missing") == []

    def test_owner_renumbering_is_transparent(self, store):
        index = ContentIndex(store)
        store.splice(3, 3, [None] * 14)   # 14 nodes inserted before pre 3
        assert sorted(index.search("alpha")) == [2, 20]

    def test_tombstone_skipped_without_rebuild(self, store):
        index = ContentIndex(store)
        store.mark_dead(0)
        assert index.search("alpha") == [6]
        assert store.dead_entries == 1
        assert store.live_entries == 3

    def test_add_content_indexes_appended_entry(self, store):
        index = ContentIndex(store)
        new_id = store.append("beta", 10)
        assert index.add_content(new_id)
        assert index.search("beta") == [10]

    def test_drop_content_counts_only_indexed(self, store):
        string_index = ContentIndex(store)
        numeric_index = ContentIndex(store, numeric=True)
        store.mark_dead(0)   # "alpha": string-indexed only
        store.mark_dead(1)   # "42": both
        assert string_index.drop_content([0, 1]) == 2
        assert numeric_index.drop_content([0, 1]) == 1
        assert len(string_index) == 2
        assert len(numeric_index) == 1


class TestNumericIndex:
    def test_numeric_key(self):
        assert numeric_key("42") == 42.0
        assert numeric_key("4.5") == 4.5
        assert numeric_key("x") is None

    def test_numeric_order_not_string_order(self, store):
        index = ContentIndex(store, numeric=True)
        hits = [owner for _, owner in index.range(5, 100)]
        assert sorted(hits) == [4, 8]    # "9" < "42" as strings!

    def test_range_skips_tombstones(self, store):
        index = ContentIndex(store, numeric=True)
        store.mark_dead(3)
        assert [owner for _, owner in index.range(0, 100)] == [4]


class TestCompaction:
    def test_compacts_when_dead_outnumber_live(self):
        content = ContentStore()
        for i in range(200):
            content.append(f"v{i}", i)
        index = ContentIndex(content)
        for i in range(150):
            content.mark_dead(i)
        index.note_dead(150)
        assert index.compactions == 1
        assert len(index) == 50
        assert index.dead_entries == 0
        assert index.search("v199") == [199]
        assert index.search("v0") == []

    def test_no_compaction_below_threshold(self):
        content = ContentStore()
        for i in range(10):
            content.append(f"v{i}", i)
        index = ContentIndex(content)
        content.mark_dead(0)
        index.note_dead(1)
        assert index.compactions == 0
        assert index.search("v0") == []   # probe-time skip still works

    def test_entries_reflect_live_state(self, store):
        index = ContentIndex(store)
        store.mark_dead(2)
        assert index.entries() == sorted(
            [("alpha", 2), ("42", 4), ("9", 8)])


class TestClone:
    def test_clone_changes_stay_in_the_clone(self, store):
        """A successor's index forks the B+ tree over the successor's
        content heap: its adds and tombstones (and a compaction) never
        reach the index it was cloned from."""
        index = ContentIndex(store)
        successor_store = store.clone()
        successor = index.clone(successor_store)
        assert successor.store is successor_store
        new_id = successor_store.append("alpha", 10)
        assert successor.add_content(new_id)
        successor_store.mark_dead(0)
        successor.drop_content([0])
        assert sorted(successor.search("alpha")) == [6, 10]
        assert sorted(index.search("alpha")) == [2, 6]
        assert (len(index), index.dead_entries) == (4, 0)
        assert (len(successor), successor.dead_entries) == (4, 1)

    def test_compaction_in_a_clone_leaves_the_base_tree(self):
        content = ContentStore()
        for i in range(200):
            content.append(f"v{i}", i)
        index = ContentIndex(content)
        successor_store = content.clone()
        successor = index.clone(successor_store)
        for i in range(150):
            successor_store.mark_dead(i)
        successor.note_dead(150)
        assert successor.compactions == 1 and index.compactions == 0
        assert successor.search("v0") == [] and index.search("v0") == [0]
        assert len(index.entries()) == 200
        assert len(successor.entries()) == 50
