"""Cache correctness: warm results identical to cold and to the
reference evaluator, invalidation on every update, counters exposed."""

import random

import pytest

from repro.engine.cache import LRUCache, normalize_query
from repro.engine.database import Database
from tests.engine.alignment import ShadowDocument

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

QUERY_POOL = [
    "//book/title",
    "/bib/book[price > 50]/title",
    "//book[@year = '2000']",
    "//author/last",
    "count(//book)",
    "//book[author/last = 'Stevens']/price",
    "/bib/book[2]",
]


@pytest.fixture
def db():
    database = Database()
    database.load(BIB, uri="bib.xml")
    return database


class TestPlanAndResultCache:
    def test_warm_equals_cold_and_reference_randomized(self, db):
        rng = random.Random(7)
        queries = [rng.choice(QUERY_POOL) for _ in range(25)]
        cold = {}
        for query in queries:
            result = db.query(query)
            cold.setdefault(query, result.values())
        oracle = ShadowDocument(BIB, uri="bib.xml")
        for query in queries:
            warm = db.query(query)
            assert warm.values() == cold[query], query
            assert warm.values() == oracle.values(query), query

    def test_second_run_hits_both_caches(self, db):
        db.query("//book/title")
        warm = db.query("//book/title")
        assert warm.stats["cache"]["plan"] == "hit"
        assert warm.stats["cache"]["result"] == "hit"
        # A result-cache hit does no physical work.
        assert warm.stats["nodes_visited"] == 0
        assert all(count == 0 for count in warm.io.values())

    def test_whitespace_variants_share_a_plan(self, db):
        db.query("//book/title")
        warm = db.query("  //book/title \n")
        assert warm.stats["cache"]["plan"] == "hit"
        assert normalize_query(" a  b \n c ") == "a b c"

    def test_counters_in_stats_and_report(self, db):
        db.query("//book/title")
        result = db.query("//book/title")
        info = result.stats["cache"]
        for cache_name in ("plan_cache", "result_cache"):
            for counter in ("hits", "misses", "evictions"):
                assert counter in info[cache_name], (cache_name, counter)
        report = db.cache_report()
        assert report["plan_cache"]["hits"] >= 1
        assert report["result_cache"]["hits"] >= 1
        assert report["generations"] == {"bib.xml": 0}

    def test_strategies_cached_separately(self, db):
        auto = db.query("//book/title")
        nok = db.query("//book/title", strategy="nok")
        assert auto.values() == nok.values()
        # Different strategy key -> first nok run is a result miss.
        assert nok.stats["cache"]["result"] == "miss"

    def test_variables_bypass_result_cache(self, db):
        result = db.query("//book[title = $t]/price",
                          variables={"t": ["Economics"]})
        assert result.stats["cache"]["result"] == "bypass"
        other = db.query("//book[title = $t]/price",
                         variables={"t": ["Data on the Web"]})
        assert other.values() != result.values()

    def test_caches_can_be_disabled(self):
        database = Database(plan_cache_size=0, result_cache_size=0)
        database.load(BIB, uri="bib.xml")
        database.query("//book/title")
        again = database.query("//book/title")
        assert again.stats["cache"]["plan"] == "miss"
        assert again.stats["cache"]["result"] == "miss"

    def test_lru_eviction_counted(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.stats.evictions == 1
        assert cache.get("a") is None          # evicted (LRU)
        assert cache.get("c") == 3


class TestInvalidation:
    def test_insert_invalidates_results(self, db):
        before = db.query("//book/title")
        assert len(before) == 3
        db.insert("/bib", "<book><title>New</title>"
                          "<price>1</price></book>")
        after = db.query("//book/title")
        assert after.stats["cache"]["result"] == "miss"
        assert len(after) == 4
        assert "New" in after.values()

    def test_delete_invalidates_results(self, db):
        db.query("//book/title")
        db.delete("/bib/book[1]")
        after = db.query("//book/title")
        assert after.stats["cache"]["result"] == "miss"
        assert len(after) == 2
        # And re-warms correctly.
        rewarm = db.query("//book/title")
        assert rewarm.stats["cache"]["result"] == "hit"
        assert rewarm.values() == after.values()

    def test_stale_results_impossible_after_update_storm(self, db):
        rng = random.Random(3)
        oracle = ShadowDocument(BIB, uri="bib.xml")
        for step in range(6):
            count = len(db.query("//book"))
            if rng.random() < 0.5 or count <= 1:
                fragment = (f"<book><title>t{step}</title>"
                            f"<price>{step}</price></book>")
                db.insert("/bib", fragment)
                oracle.insert("/bib", fragment)
            else:
                victim = f"/bib/book[{rng.randint(1, count)}]"
                db.delete(victim)
                oracle.delete(victim)
            for query in ("//book/title", "count(//book)"):
                assert db.query(query).values() == oracle.values(query), \
                    (step, query)

    def test_reload_invalidates_results(self, db):
        db.query("//book/title")
        db.load("<bib><book><title>Only</title></book></bib>",
                uri="bib.xml")
        after = db.query("//book/title")
        assert after.values() == ["Only"]


class TestPreparedQueries:
    def test_prepare_and_run(self, db):
        prepared = db.prepare("//book[price > 50]/title")
        first = prepared.run()
        second = prepared()
        assert first.values() == second.values() == \
            ["TCP/IP Illustrated", "Economics"]
        assert second.stats["cache"]["result"] == "hit"

    def test_prepared_query_sees_updates(self, db):
        prepared = db.prepare("count(//book)")
        assert prepared.run().values() == [3.0]
        db.insert("/bib", "<book><title>X</title></book>")
        assert prepared.run().values() == [4.0]

    def test_prepared_with_strategy_and_variables(self, db):
        prepared = db.prepare("//book[title = $t]")
        result = prepared.run(variables={"t": ["Economics"]})
        assert len(result) == 1
        nok = prepared.run(strategy="nok",
                           variables={"t": ["Economics"]})
        assert nok.values() == result.values()

    def test_prepared_explain(self, db):
        prepared = db.prepare("//book/title")
        assert "tau strategy" in prepared.explain()


class TestStrategyMemo:
    def test_memo_fills_and_expires_on_update(self, db):
        db.query("//book/title", strategy="auto")
        assert db.cache_report()["strategy_memo"]["bib.xml"] >= 1
        generation = db.document().statistics.generation
        db.insert("/bib", "<book><title>Y</title></book>")
        # MVCC: the insert publishes a successor version whose
        # statistics generation moved on; it starts with a fresh memo,
        # so nothing stale can be consulted.  A fresh query memoizes
        # under the new generation in the new version.
        document = db.document()
        assert document.statistics.generation > generation
        db.result_cache.clear()
        db.query("//book/title", strategy="auto")
        assert any(key[1] == document.statistics.generation
                   for key in document.strategy_memo)

    def test_io_accounting_isolated_between_queries(self, db):
        # Two interleaved prepared queries: each report only counts its
        # own touches (the seed reset the shared counters instead).
        db.clear_caches()
        total_before = db.pages.counters.snapshot()["logical_touches"]
        first = db.query("//book/title", strategy="nok")
        second = db.query("//author/last", strategy="navigational")
        total_after = db.pages.counters.snapshot()["logical_touches"]
        assert first.io["logical_touches"] > 0
        assert second.io["logical_touches"] > 0
        assert (first.io["logical_touches"] + second.io["logical_touches"]
                == total_after - total_before)
