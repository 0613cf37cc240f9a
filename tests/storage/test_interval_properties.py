"""Property tests: the interval label columns under random splices.

Random insert/delete sequences on an :class:`IntervalDocument` — with a
:class:`TagIndex` and :class:`DocumentStatistics` maintained alongside,
exactly as the engine does — must leave every structure equal to a
fresh build from the same model tree.  The splice metrics must equal
what the record-by-record relabel loop reports; that loop (the store's
previous update algorithm) is kept below as the oracle.
"""

import copy
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.interval import IntervalDocument, _wrap
from repro.storage.stats import DocumentStatistics
from repro.storage.succinct import KIND_ATTRIBUTE, KIND_ELEMENT
from repro.storage.tagindex import TagIndex
from repro.xml import model
from repro.xml.events import events_from_tree
from repro.xml.parser import parse
from tests.storage.test_succinct import SAMPLE, small_subtrees, succinct_order

_LABELS = ("pre", "post", "end", "level", "parent")


def _mutable(records) -> list[SimpleNamespace]:
    return [SimpleNamespace(**record._asdict()) for record in records]


def oracle_insert(records: list, parent: int, position: int,
                  subtree: model.Element) -> dict[str, int]:
    """Insert by relabelling one record at a time (mutates ``records``)."""
    target = records[parent]
    children = [r for r in records
                if r.parent == parent and r.kind != KIND_ATTRIBUTE]
    fragment = IntervalDocument.from_events(events_from_tree(_wrap(subtree)))
    new_records = _mutable(fragment.nodes[1:])
    for record in new_records:
        record.parent -= 1
        record.level -= 1
    inserted = len(new_records)
    if position == len(children):
        insert_pre = target.end + 1
    else:
        insert_pre = children[position].pre
    insert_post = min((r.post for r in records if r.pre >= insert_pre),
                      default=target.post)
    insert_post = min(insert_post, target.post)
    relabelled = 0
    for record in records:
        changed = False
        if record.pre >= insert_pre:
            record.pre += inserted
            changed = True
        if record.post >= insert_post:
            record.post += inserted
            changed = True
        if record.end >= insert_pre or record.post >= insert_post:
            record.end += inserted
            changed = True
        if record.parent >= insert_pre:
            record.parent += inserted
            changed = True
        relabelled += changed
    base_level = target.level + 1
    for offset, record in enumerate(new_records):
        record.pre = insert_pre + offset
        record.post += insert_post
        record.end = record.end - 1 + insert_pre
        record.level += base_level
        record.parent = (target.pre if record.parent < 0
                         else record.parent + insert_pre)
    records[insert_pre:insert_pre] = new_records
    return {"relabelled": relabelled, "inserted_nodes": inserted,
            "inserted_at": insert_pre}


def oracle_delete(records: list, pre: int) -> dict[str, int]:
    """Delete by relabelling one record at a time (mutates ``records``)."""
    import bisect

    removed = records[pre].end - pre + 1
    removed_posts = sorted(r.post for r in records[pre:pre + removed])
    del records[pre:pre + removed]
    relabelled = 0
    for survivor in records:
        changed = False
        if survivor.pre >= pre:
            survivor.pre -= removed
            changed = True
        if survivor.end >= pre:
            survivor.end -= removed
            changed = True
        post_shift = bisect.bisect_left(removed_posts, survivor.post)
        if post_shift:
            survivor.post -= post_shift
            changed = True
        if survivor.parent >= pre:
            survivor.parent -= removed
            changed = True
        relabelled += changed
    return {"removed_nodes": removed, "relabelled": relabelled}


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 10**6),
                          st.integers(0, 10**6), small_subtrees()),
                max_size=10))
@settings(max_examples=80, deadline=None)
def test_splices_match_fresh_build_and_relabel_oracle(operations):
    document = parse(SAMPLE)
    interval = IntervalDocument.from_document(document)
    tag_index = TagIndex(interval)
    statistics = DocumentStatistics(interval)
    labels = _mutable(interval.nodes)
    for is_insert, pick, slot, subtree in operations:
        order = succinct_order(document)
        tag_index.postings("title")   # memoised records must not go stale
        if is_insert:
            parents = [pre for pre, node in enumerate(order)
                       if isinstance(node, (model.Element, model.Document))]
            parent_pre = parents[pick % len(parents)]
            parent = order[parent_pre]
            position = slot % (len(parent) + 1)
            expected = oracle_insert(labels, parent_pre, position, subtree)
            metrics = interval.insert_subtree(parent_pre, position, subtree)
            tag_index.apply_insert(metrics["inserted_at"],
                                   metrics["inserted_nodes"])
            statistics.apply_insert(interval, metrics["inserted_at"],
                                    metrics["inserted_nodes"])
            parent.insert(position, subtree)
        else:
            victims = [pre for pre, node in enumerate(order)
                       if pre and not isinstance(node, model.Attribute)]
            if not victims:
                continue
            victim = victims[pick % len(victims)]
            expected = oracle_delete(labels, victim)
            tag_index.apply_delete(victim, interval.end[victim] - victim + 1)
            statistics.apply_delete(interval, victim)
            metrics = interval.delete_subtree(victim)
            order[victim].parent.remove(order[victim])
        statistics.finalize_update()
        assert metrics == expected

        fresh = IntervalDocument.from_document(document)
        assert interval.end == fresh.end
        assert interval.level == fresh.level
        assert interval.parent == fresh.parent
        assert interval.tags == fresh.tags
        assert interval.kinds == fresh.kinds
        assert interval.values == fresh.values
        assert interval.nodes == fresh.nodes
        assert [[getattr(label, name) for name in _LABELS]
                for label in labels] == \
            [[getattr(record, name) for name in _LABELS]
             for record in fresh.nodes]

        fresh_index = TagIndex(fresh)
        assert tag_index.postings_snapshot() == \
            fresh_index.postings_snapshot()
        for tag in fresh_index.tags():
            assert tag_index.postings(tag) == fresh_index.postings(tag)

        fresh_statistics = DocumentStatistics(fresh)
        assert statistics.comparable_state() == \
            fresh_statistics.comparable_state()
        assert statistics.fragmented_value_tags == \
            fresh_statistics.fragmented_value_tags
        assert statistics._fragmented == fresh_statistics._fragmented


def test_restored_statistics_without_counts_rebuild_on_update():
    """A statistics snapshot written before fragmentation counts were
    kept restores with the counts unknown; the first update rebuilds
    them from the document and the result stays exact."""
    for delete in (False, True):
        document = parse(SAMPLE)
        interval = IntervalDocument.from_document(document)
        state = DocumentStatistics(interval).to_snapshot()
        del state["fragmented_counts"]
        statistics = DocumentStatistics.from_snapshot(state)
        if delete:
            book = interval.by_tag("book")[0].pre
            statistics.apply_delete(interval, book)
            interval.delete_subtree(book)
        else:
            note = model.Element("note")
            note.append_text("x")
            metrics = interval.insert_subtree(1, 0, note)
            statistics.apply_insert(interval, metrics["inserted_at"],
                                    metrics["inserted_nodes"])
        statistics.finalize_update()
        fresh = DocumentStatistics(interval)
        assert statistics.comparable_state() == fresh.comparable_state()
        assert statistics._fragmented == fresh._fragmented


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 10**6),
                          st.integers(0, 10**6), small_subtrees()),
                min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_statistics_clone_leaves_the_base_unchanged(operations):
    """Deltas applied to a clone, as a copy-on-write successor applies
    them, never reach the statistics it was cloned from (each inner
    ``distinct_values`` Counter included), and the clone stays exact."""
    base_interval = IntervalDocument.from_document(parse(SAMPLE))
    base = DocumentStatistics(base_interval)
    before = copy.deepcopy(base.comparable_state())
    fragmented_before = copy.deepcopy(base._fragmented)
    interval, statistics = base_interval.clone(), base.clone()
    for is_insert, pick, slot, subtree in operations:
        kinds = interval.kinds
        if is_insert:
            parents = [pre for pre, kind in enumerate(kinds)
                       if kind == KIND_ELEMENT]
            parent = parents[pick % len(parents)]
            children = sum(kinds[child] != KIND_ATTRIBUTE
                           for child in interval.child_pres(parent))
            metrics = interval.insert_subtree(
                parent, slot % (children + 1), subtree)
            statistics.apply_insert(interval, metrics["inserted_at"],
                                    metrics["inserted_nodes"])
        else:
            victims = [pre for pre in range(1, len(interval))
                       if kinds[pre] != KIND_ATTRIBUTE
                       and interval.parent[pre] > 0]   # keep the root
            if not victims:
                continue
            victim = victims[pick % len(victims)]
            statistics.apply_delete(interval, victim)
            interval.delete_subtree(victim)
        statistics.finalize_update()
        assert base.comparable_state() == before
        assert base._fragmented == fragmented_before
    assert statistics.comparable_state() == \
        DocumentStatistics(interval).comparable_state()
