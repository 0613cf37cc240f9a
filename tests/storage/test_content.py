"""Unit tests for the separated content store."""

from repro.storage.content import ContentStore


class TestContentStore:
    def make(self):
        store = ContentStore()
        store.append("alpha", owner=3)
        store.append("beta", owner=5)
        store.append("alpha", owner=9)
        return store

    def test_append_and_get(self):
        store = self.make()
        assert len(store) == 3
        assert store.get(0) == "alpha"
        assert store.get(1) == "beta"
        assert store.owner(2) == 9

    def test_iteration(self):
        triples = list(self.make())
        assert triples == [(0, "alpha", 3), (1, "beta", 5),
                           (2, "alpha", 9)]

    def test_entry_length_via_offsets(self):
        store = self.make()
        assert store.entry_length(0) == 5
        assert store.entry_length(1) == 4

    def test_find_exact(self):
        store = self.make()
        assert store.find_exact("alpha") == [3, 9]
        assert store.find_exact("missing") == []

    def test_sorted_entries(self):
        assert self.make().sorted_entries() == [
            ("alpha", 3), ("alpha", 9), ("beta", 5)]

    def test_set_owner(self):
        store = self.make()
        store.set_owner(1, 42)
        assert store.owner(1) == 42
        assert store.sorted_entries()[-1] == ("beta", 42)

    def test_size_bytes_counts_payload_and_tables(self):
        store = self.make()
        payload = len("alphabetaalpha".encode("utf-8"))
        assert store.size_bytes() == payload + 4 * (4 + 3)

    def test_unicode_payload_counted_in_utf8(self):
        store = ContentStore()
        store.append("é", owner=0)
        assert store.size_bytes() >= 2


def recomputed_size(store: ContentStore) -> int:
    payload = sum(len(value.encode("utf-8")) for _, value, _ in store)
    return payload + 4 * ((len(store) + 1) + len(store))


class TestRunningSizeAccounting:
    """``size_bytes()`` is kept as a running count; it must always equal
    the sum recomputed from the stored values."""

    VALUES = ["plain", "é", "日本語", "🙂 emoji", "", "mixed ü ascii"]

    def make(self) -> ContentStore:
        store = ContentStore()
        for owner, value in enumerate(self.VALUES):
            store.append(value, owner)
        return store

    def test_after_non_ascii_appends(self):
        store = ContentStore()
        assert store.size_bytes() == recomputed_size(store)
        for owner, value in enumerate(self.VALUES):
            store.append(value, owner)
            assert store.size_bytes() == recomputed_size(store)

    def test_after_mark_dead(self):
        store = self.make()
        store.mark_dead(1)
        store.mark_dead(2)
        assert store.size_bytes() == recomputed_size(store)

    def test_after_clone(self):
        store = self.make()
        twin = store.clone()
        twin.append("ñandú", 99)
        assert twin.size_bytes() == recomputed_size(twin)
        assert store.size_bytes() == recomputed_size(store)
        assert twin.size_bytes() > store.size_bytes()

    def test_after_snapshot_round_trip(self):
        store = self.make()
        store.mark_dead(3)
        restored = ContentStore.from_snapshot(store.to_snapshot())
        assert restored.size_bytes() == recomputed_size(restored)
        assert restored.size_bytes() == store.size_bytes()
        restored.append("über", 7)
        assert restored.size_bytes() == recomputed_size(restored)
