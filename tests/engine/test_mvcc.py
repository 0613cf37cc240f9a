"""MVCC snapshot-isolation tests.

The serving contract since the copy-on-write refactor:

* queries pin one immutable :class:`DatabaseSnapshot` and never take a
  lock — the writer mutex's wait histogram does not move under pure
  query load (the E15 acceptance criterion);
* writers clone the current :class:`DocumentVersion`, splice the clone
  and publish with one atomic snapshot swap — a pinned version is
  frozen forever, however many updates land after it;
* result-cache stamps are built from per-version ids, so a cached
  result can never be served across a publish;
* durability recovery reproduces the same logical version state
  (generations and query results), and the mixed differential stress
  (8 readers / 2 writers) sees zero consistency violations.
"""

import random
import threading
import time

from repro.engine.database import Database

DOC = """
<shop>
  <item sku="a"><name>alpha</name><price>10</price></item>
  <item sku="b"><name>beta</name><price>25</price></item>
  <item sku="c"><name>gamma</name><price>40</price></item>
  <scratch><seed/></scratch>
</shop>
"""


def make_db(**kwargs) -> Database:
    db = Database(**kwargs)
    db.load(DOC, uri="shop.xml")
    return db


class TestVersionPinning:
    def test_updates_publish_new_versions(self):
        db = make_db()
        v0 = db.document()
        assert v0.version_id > 0
        db.insert("/shop", "<item sku='d'><name>delta</name>"
                           "<price>5</price></item>")
        v1 = db.document()
        assert v1 is not v0
        assert v1.version_id > v0.version_id
        assert v1.generation == v0.generation + 1

    def test_pinned_version_is_frozen(self):
        """Everything hanging off a pinned version — interval records,
        content heap, the nodes its handles read — is untouched by
        later updates."""
        db = make_db()
        v0 = db.document()
        nodes_before = len(v0.interval.nodes)
        record = v0.interval.node(1)
        labels_before = (record.pre, record.end, record.post)
        names_before = [n.string_value()
                        for n in v0.node_for(0).root.children()]
        db.insert("/shop", "<item sku='d'><name>delta</name>"
                           "<price>5</price></item>")
        db.delete("/shop/item[1]")
        assert len(v0.interval.nodes) == nodes_before
        assert (record.pre, record.end, record.post) == labels_before
        assert [n.string_value()
                for n in v0.node_for(0).root.children()] == names_before
        assert len(v0.interval) == nodes_before

    def test_long_running_query_executes_against_its_pin(self):
        """A query that pinned a snapshot before an update keeps
        resolving documents in that snapshot mid-flight (this is what
        an executor does for every τ)."""
        from repro.engine.executor import run_plan

        db = make_db(result_cache_size=0)
        pinned = db._snapshot
        plan, _ = db._compiled_plan("//item/name")
        db.insert("/shop", "<item sku='d'><name>delta</name>"
                           "<price>5</price></item>")
        # The update is visible to new queries...
        assert "delta" in db.query("//item/name").values()
        # ...but an execution context carrying the old pin is not told.
        context = db._execution_context(None, "auto", snapshot=pinned)
        items = run_plan(plan, context)
        assert [item.string_value() for item in items] == \
            ["alpha", "beta", "gamma"]

    def test_queries_acquire_zero_read_locks(self):
        """The acceptance criterion: under pure query load the writer
        mutex's wait histogram count does not change."""
        db = make_db()
        lock_wait = db.observability.registry.get(
            "repro_lock_wait_seconds")
        count_before = lock_wait.count()
        for _ in range(3):
            db.query("//item/name")
            db.query("count(//item)")
        db.query_many(["//item/name", "count(//item)"] * 4,
                      max_workers=4)
        db.explain("//item/name", analyze=True)
        assert lock_wait.count() == count_before
        assert db.active_pins == 0  # every pin was released


class TestSharedValueIndexes:
    def test_pinned_version_answers_index_probes_as_before(self):
        """Successors fork their parent's value B+ trees and path-copy
        what they insert: a version pinned before 40 inserts and 20
        deletes answers forced index-scan probes (string equality and
        numeric range) exactly as before them, while the newest
        version sees the inserted values."""
        db = make_db(result_cache_size=0)

        def probe(query: str, snapshot=None) -> list:
            plan, plan_hit = db._compiled_plan(query)
            result = db._run_compiled(query, plan, plan_hit=plan_hit,
                                      strategy="index-scan", uri=None,
                                      variables=None, snapshot=snapshot)
            assert result.strategy == "index-scan"
            return result.values()

        probes = ["//item[name = 'beta']/@sku", "//item[price > 20]/name",
                  "//item[name = 'n39']/name", "//item[price > 130]/name"]
        pinned = db._snapshot
        before = {query: probe(query, pinned) for query in probes}
        assert before["//item[name = 'beta']/@sku"] == ["b"]
        assert before["//item[price > 20]/name"] == ["beta", "gamma"]
        for step in range(40):
            db.insert("/shop", f"<item sku='s{step}'><name>n{step}</name>"
                               f"<price>{100 + step}</price></item>")
            if step % 2:
                db.delete("/shop/item[1]")
        assert {query: probe(query, pinned) for query in probes} == before
        assert probe("//item[name = 'n39']/name") == ["n39"]
        assert probe("//item[name = 'beta']/@sku") == []
        assert probe("//item[price > 130]/name") == \
            [f"n{step}" for step in range(31, 40)]
        for query in probes:
            assert probe(query) == db.query(query, strategy="nok").values()


class TestPublishAtomicity:
    def test_snapshot_swap_is_all_or_nothing(self):
        """Concurrent pinners only ever observe complete snapshots:
        the stamp, the documents dict, and each version's generation
        agree with each other in every pinned view."""
        db = make_db()
        stop = threading.Event()
        failures: list = []

        def churn() -> None:
            step = 0
            while not stop.is_set():
                db.insert("/shop/scratch", f"<probe>p{step}</probe>")
                db.delete("/shop/scratch/probe[1]")
                step += 1

        def pinner() -> None:
            for _ in range(300):
                snapshot = db._snapshot
                version = snapshot.documents["shop.xml"]
                expected = (snapshot.load_epoch,
                            ("shop.xml", version.version_id))
                if snapshot.stamp != expected:
                    failures.append((snapshot.stamp, expected))
                # The version must be internally consistent however
                # long we hold it.
                interval = version.interval
                if len({len(column) for column in (
                        interval.tags, interval.kinds, interval.values,
                        interval.end, interval.parent,
                        interval.level)}) != 1:
                    failures.append("label columns disagree in length")

        churner = threading.Thread(target=churn)
        pinners = [threading.Thread(target=pinner) for _ in range(4)]
        churner.start()
        for thread in pinners:
            thread.start()
        for thread in pinners:
            thread.join()
        stop.set()
        churner.join()
        assert not failures, failures[:3]

    def test_publish_counter_and_metrics(self):
        db = make_db()
        published = db.version_publishes
        assert published >= 1  # the load itself
        db.insert("/shop/scratch", "<probe>x</probe>")
        db.delete("/shop/scratch/probe")
        assert db.version_publishes == published + 2
        text = db.metrics_text()
        assert "repro_version_publishes_total" in text
        assert "repro_version_pins" in text
        assert 'repro_document_version{uri="shop.xml"}' in text

    def test_rebuild_derived_publishes_new_version(self):
        db = make_db()
        v0 = db.document()
        memo_before = dict(v0.strategy_memo)
        v1 = db.rebuild_derived()
        assert v1 is not v0
        assert v1.version_id > v0.version_id
        assert v1.statistics.generation > v0.statistics.generation
        # The old version's memo was not clobbered; the new one is
        # fresh.
        assert dict(v0.strategy_memo) == memo_before
        assert v1.strategy_memo == {}
        assert db.query("//item/name").values() == \
            ["alpha", "beta", "gamma"]


class TestResultCacheStamps:
    def test_stamp_is_the_version_vector(self):
        db = make_db()
        assert db._generation_stamp() == (
            db._load_epoch, ("shop.xml", db.document().version_id))

    def test_cache_hit_within_version_miss_across(self):
        db = make_db()
        first = db.query("//item/name")
        assert first.stats["cache"]["result"] == "miss"
        second = db.query("//item/name")
        assert second.stats["cache"]["result"] == "hit"
        db.insert("/shop/scratch", "<probe>x</probe>")
        third = db.query("//item/name")
        # Same logical answer, but the stamp moved: recomputed.
        assert third.stats["cache"]["result"] == "miss"
        assert third.values() == first.values()

    def test_rebuild_invalidates_results(self):
        """A derived rebuild changes no data, but it publishes a new
        version id — cached results must not survive it (the old
        generation counter missed pure rebuilds' index swaps)."""
        db = make_db()
        db.query("//item/name")
        assert db.query("//item/name").stats["cache"]["result"] == "hit"
        db.rebuild_derived()
        assert db.query("//item/name").stats["cache"]["result"] == "miss"


class TestDurabilityParity:
    def test_recovery_restores_version_state(self, tmp_path):
        db = Database.open(tmp_path, checkpoint_every=0)
        db.load(DOC, uri="shop.xml")
        db.insert("/shop", "<item sku='d'><name>delta</name>"
                           "<price>5</price></item>")
        db.delete("/shop/item[1]")
        names = db.query("//item/name").values()
        generation = db.document().generation
        stamp_shape = db._generation_stamp()
        db.close()

        reopened = Database.open(tmp_path)
        try:
            assert reopened.query("//item/name").values() == names
            assert reopened.document().generation == generation
            # Version ids restart per process, but the stamp keeps the
            # same shape and the WAL replay verified each generation.
            restored = reopened._generation_stamp()
            assert len(restored) == len(stamp_shape)
            assert restored[1][0] == "shop.xml"
            reopened.verify_derived(reopened.document())
        finally:
            reopened.close()

    def test_checkpoint_after_publish_sees_new_version(self, tmp_path):
        """maybe_checkpoint runs after the snapshot swap, so an
        auto-checkpoint triggered by an update serializes the updated
        state (reopen sees it without replaying the WAL record)."""
        db = Database.open(tmp_path, checkpoint_every=1)
        db.load(DOC, uri="shop.xml")
        db.insert("/shop", "<item sku='d'><name>delta</name>"
                           "<price>5</price></item>")
        db.close()
        reopened = Database.open(tmp_path)
        try:
            assert "delta" in reopened.query("//item/name").values()
        finally:
            reopened.close()


class TestMixedDifferential:
    def test_eight_readers_two_writers_zero_violations(self):
        """The CI differential: 8 readers over invariant catalog
        queries while two writers churn disjoint scratch areas — every
        read must equal serial execution, and the read path must not
        have touched the writer mutex: its wait histogram counts the
        writers' acquisitions and nothing else."""
        rng = random.Random(7)
        rows = "".join(
            f"<item><name>n{i}</name>"
            f"<price>{rng.randrange(1, 100)}</price></item>"
            for i in range(30))
        db = Database()
        db.load(f"<site><catalog>{rows}</catalog>"
                "<pad1><seed/></pad1><pad2><seed/></pad2></site>",
                uri="site.xml")
        queries = ["//item/name", "count(//item)",
                   "/site/catalog/item[price > 50]/name",
                   "/site/catalog/item[1]/name"]
        serial = {q: db.query(q).values() for q in queries}
        db.clear_caches()
        lock_wait = db.observability.registry.get(
            "repro_lock_wait_seconds")
        count_before = lock_wait.count()
        writes: list = []
        failures: list = []
        stop = threading.Event()

        def reader(seed: int) -> None:
            local = random.Random(seed)
            for _ in range(40):
                query = local.choice(queries)
                try:
                    got = db.query(query).values()
                    if got != serial[query]:
                        failures.append((query, got, serial[query]))
                except Exception as error:  # pragma: no cover
                    failures.append((query, repr(error)))

        def writer(area: str) -> None:
            step = 0
            try:
                while not stop.is_set():
                    writes.append(area)
                    db.insert(f"/site/{area}",
                              f"<probe><t>{area}{step}</t></probe>")
                    time.sleep(0.001)
                    writes.append(area)
                    db.delete(f"/site/{area}/probe[1]")
                    step += 1
            except Exception as error:  # pragma: no cover
                failures.append((area, repr(error)))

        readers = [threading.Thread(target=reader, args=(seed,))
                   for seed in range(8)]
        writers = [threading.Thread(target=writer, args=(area,))
                   for area in ("pad1", "pad2")]
        for thread in writers + readers:
            thread.start()
        for thread in readers:
            thread.join()
        stop.set()
        for thread in writers:
            thread.join()
        assert not failures, failures[:5]
        assert lock_wait.count() - count_before == len(writes)
        for query in queries:
            assert db.query(query).values() == serial[query]
        assert lock_wait.count() - count_before == len(writes)
