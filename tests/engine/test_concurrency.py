"""Concurrent serving-layer tests.

* the writer mutex (``Database.write_locked``): exclusion against a
  concurrent insert, reentrancy, and its wait histogram;
* thread-safety of the LRU caches under a multi-threaded hammer;
* ``Database.query_many`` batch semantics;
* the stress suite the CI job runs: N reader threads executing mixed
  prepared/ad-hoc queries while a writer thread inserts and deletes,
  cross-checked item-for-item against serial execution, with the
  per-thread I/O accounting invariant (per-query totals sum to the
  manager's cumulative counters) checked at the end.

``REPRO_STRESS_WORKERS`` (default 8) sets the reader thread count.
"""

import os
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.engine.cache import LRUCache
from repro.engine.database import Database
from tests.engine.alignment import ShadowDocument

STRESS_WORKERS = int(os.environ.get("REPRO_STRESS_WORKERS", "8"))

BIB = """
<bib>
  <book year="1994"><title>TCP/IP Illustrated</title>
    <author><last>Stevens</last></author><price>65.95</price></book>
  <book year="2000"><title>Data on the Web</title>
    <author><last>Abiteboul</last></author><price>39.95</price></book>
  <book year="1999"><title>Economics</title>
    <author><last>Varian</last></author><price>100</price></book>
</bib>
"""


# -- the writer mutex -----------------------------------------------------------


def _lock_wait(db: Database):
    return db.observability.registry.get("repro_lock_wait_seconds")


class TestWriterMutex:
    def test_insert_blocks_while_mutex_held(self):
        db = Database()
        db.load(BIB, uri="bib.xml")
        histogram = _lock_wait(db)
        inserted = threading.Event()

        def writer():
            db.insert("/bib", "<book><title>Blocked</title></book>")
            inserted.set()

        with db.write_locked():
            count_before = histogram.count()
            sum_before = histogram.sum()
            thread = threading.Thread(target=writer)
            thread.start()
            # The insert must queue behind the held mutex.
            assert not inserted.wait(0.05)
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert inserted.is_set()
        assert histogram.count() == count_before + 1
        assert histogram.sum() - sum_before > 0.0
        assert "Blocked" in db.query("//book/title").values()

    def test_nested_write_locked_does_not_deadlock(self):
        db = Database()
        db.load(BIB, uri="bib.xml")
        histogram = _lock_wait(db)
        count_before = histogram.count()
        with db.write_locked():
            with db.write_locked():
                db.insert("/bib", "<book><title>Nested</title></book>")
        assert histogram.count() == count_before + 3
        assert "Nested" in db.query("//book/title").values()


# -- thread-safe caches ---------------------------------------------------------


class TestLRUCacheThreadSafety:
    def test_concurrent_hammer_keeps_invariants(self):
        cache = LRUCache(capacity=32)
        operations_per_thread = 2000
        threads = 8

        def hammer(seed: int) -> int:
            rng = random.Random(seed)
            gets = 0
            for _ in range(operations_per_thread):
                key = rng.randrange(64)
                if rng.random() < 0.5:
                    cache.put(key, key * 2)
                else:
                    value = cache.get(key)
                    assert value is None or value == key * 2
                    gets += 1
            return gets

        with ThreadPoolExecutor(max_workers=threads) as pool:
            gets = sum(pool.map(hammer, range(threads)))
        assert len(cache) <= 32
        stats = cache.stats
        # Counter consistency: every get was either a hit or a miss.
        assert stats.hits + stats.misses == gets


# -- query_many -----------------------------------------------------------------


QUERY_POOL = [
    "//book/title",
    "/bib/book[price > 50]/title",
    "//book[@year = '2000']",
    "//author/last",
    "count(//book)",
    "//book[author/last = 'Stevens']/price",
]


class TestQueryMany:
    def test_matches_serial_in_order(self):
        db = Database()
        db.load(BIB, uri="bib.xml")
        batch = [QUERY_POOL[i % len(QUERY_POOL)] for i in range(24)]
        serial = [db.query(q).values() for q in batch]
        db.clear_caches()
        concurrent = db.query_many(batch, max_workers=6)
        assert [r.values() for r in concurrent] == serial

    def test_prepared_queries_in_batch(self):
        db = Database()
        db.load(BIB, uri="bib.xml")
        prepared = db.prepare("//book/title")
        results = db.query_many([prepared, "count(//book)", prepared],
                                max_workers=3)
        assert results[0].values() == results[2].values()
        assert results[1].values() == [3.0]

    def test_serial_fallback(self):
        db = Database()
        db.load(BIB, uri="bib.xml")
        results = db.query_many(["//book/title"], max_workers=8)
        assert len(results) == 1
        assert db.query_many([], max_workers=4) == []


# -- the stress suite (run by the CI threaded-stress job) -----------------------


def _catalog_document(items: int = 40) -> str:
    rng = random.Random(5)
    rows = "".join(
        f"<item><name>n{i}</name><price>{rng.randrange(1, 100)}</price>"
        f"<quantity>{rng.randrange(1, 5)}</quantity></item>"
        for i in range(items))
    return f"<site><catalog>{rows}</catalog><scratch><seed/></scratch></site>"


READER_QUERIES = [
    "//item/name",
    "/site/catalog/item[price > 50]/name",
    "count(//item)",
    "//item[quantity = '1']/price",
    "/site/catalog/item[1]/name",
    "//catalog/item[price > 80]",
]


class TestConcurrentServing:
    def test_readers_with_writer_match_serial(self):
        """8 readers x mixed prepared/ad-hoc queries + 1 writer thread;
        every result must equal serial execution, and the per-thread
        I/O accounting must sum to the cumulative counters."""
        db = Database(debug_checks=True)
        db.load(_catalog_document(), uri="site.xml")

        # The writer only touches /site/scratch; the reader queries only
        # match catalog content, so their correct answers are invariant
        # under every interleaving — "identical to serial execution".
        serial = {q: db.query(q).values() for q in READER_QUERIES}
        db.clear_caches()

        readers = STRESS_WORKERS
        per_reader = max(200 // readers + 1, 8)  # >= 200 queries total
        prepared = {q: db.prepare(q) for q in READER_QUERIES[::2]}
        failures: list = []
        io_lock = threading.Lock()
        reader_io: list[dict] = []
        writer_io: dict = {}
        cumulative_before = db.pages.counters.snapshot()

        def reader(seed: int) -> None:
            rng = random.Random(seed)
            for _ in range(per_reader):
                query = rng.choice(READER_QUERIES)
                try:
                    if query in prepared and rng.random() < 0.5:
                        result = prepared[query].run()
                    else:
                        result = db.query(query)
                    if result.values() != serial[query]:
                        failures.append(
                            (query, result.values(), serial[query]))
                    with io_lock:
                        reader_io.append(result.io)
                except Exception as error:  # pragma: no cover
                    failures.append((query, repr(error)))

        def writer() -> None:
            before = db.pages.thread_snapshot()
            try:
                for step in range(12):
                    db.insert("/site/scratch",
                              f"<probe><label>p{step}</label></probe>")
                    time.sleep(0.001)
                    db.delete("/site/scratch/probe[1]")
            except Exception as error:  # pragma: no cover
                failures.append(("writer", repr(error)))
            after = db.pages.thread_snapshot()
            with io_lock:
                writer_io.update(
                    {k: after[k] - before[k] for k in after})

        threads = [threading.Thread(target=reader, args=(seed,))
                   for seed in range(readers)]
        writer_thread = threading.Thread(target=writer)
        for thread in threads + [writer_thread]:
            thread.start()
        for thread in threads + [writer_thread]:
            thread.join()

        assert not failures, failures[:5]
        assert len(reader_io) == readers * per_reader
        assert len(reader_io) >= 200

        # I/O accounting invariant: every page access was credited to
        # exactly one thread, so per-query totals (readers) plus the
        # writer's thread total equal the cumulative delta.
        cumulative_after = db.pages.counters.snapshot()
        for field in ("page_reads", "pool_hits", "logical_touches",
                      "page_writes"):
            observed = (sum(io[field] for io in reader_io)
                        + writer_io[field])
            expected = cumulative_after[field] - cumulative_before[field]
            assert observed == expected, (field, observed, expected)
        # And the per-thread ledgers agree with the cumulative ones.
        assert db.pages.threads_total() == db.pages.counters.snapshot()

        # The writer left the document as it found it.
        assert db.query("count(//probe)").values() == [0.0]
        for query in READER_QUERIES:
            assert db.query(query).values() == serial[query]

    def test_cache_counters_consistent_under_concurrency(self):
        db = Database()
        db.load(_catalog_document(16), uri="site.xml")
        batch = [READER_QUERIES[i % len(READER_QUERIES)]
                 for i in range(120)]
        db.query_many(batch, max_workers=STRESS_WORKERS)
        report = db.cache_report()["result_cache"]
        # Every lookup was counted exactly once as a hit or a miss.
        assert report["hits"] + report["misses"] == len(batch)
        assert report["entries"] <= len(READER_QUERIES)

    def test_concurrent_cold_compiles_are_safe(self):
        db = Database()
        db.load(_catalog_document(8), uri="site.xml")
        expected = ShadowDocument(_catalog_document(8),
                                  uri="site.xml").values("//item/name")
        results = db.query_many(["//item/name"] * 16,
                                max_workers=STRESS_WORKERS)
        for result in results:
            assert result.values() == expected

    def test_generation_stamp_prevents_torn_reads(self):
        """A reader sees only *consistent* snapshots: with a churner
        inserting then deleting one item, every observed count is either
        the base state or base+1 — never a torn intermediate."""
        db = Database()
        db.load(_catalog_document(12), uri="site.xml")
        stop = threading.Event()
        failures = []

        def churn():
            step = 0
            while not stop.is_set():
                db.insert("/site/catalog",
                          f"<item><name>x{step}</name>"
                          f"<price>1</price></item>")
                db.delete(f"/site/catalog/item[name = 'x{step}']")
                step += 1

        churner = threading.Thread(target=churn)
        churner.start()
        try:
            for _ in range(60):
                engine = db.query("count(//item)").values()
                if engine not in ([12.0], [13.0]):
                    failures.append(engine)
        finally:
            stop.set()
            churner.join()
        assert not failures, failures[:3]
