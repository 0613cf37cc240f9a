"""The engine prices simulated pages by the buffer-pool miss rate.

``Database.planner_for`` hands the cost model the share of a document's
charged pages that cannot stay resident in the pool.  These tests pin
what that buys on a resident XMark document: ``auto`` does about as
little operator work as the best serving strategy, and EXPLAIN prices
exactly like the query that follows it.
"""

import pytest

from repro.engine.database import Database
from repro.errors import ReproError
from repro.workload import generate_xmark
from repro.workload.queries import (
    LINEAR_PATHS,
    TWIG_QUERIES,
    XMARK_QUERY_SET,
)
from repro.xml.serializer import serialize

Q20 = [*LINEAR_PATHS.values(), *TWIG_QUERIES.values(),
       *XMARK_QUERY_SET.values()]
# A forced ``nok`` runs ``partitioned`` on patterns that are not NoK.
SERVING = ("nok", "columnar", "index-scan")


@pytest.fixture(scope="module")
def xmark_text():
    return serialize(generate_xmark(120, seed=42))


def fresh(text, **options):
    database = Database(result_cache_size=0, **options)
    database.load(text, uri="x.xml")
    return database


def operator_work(result):
    return (result.stats.get("nodes_visited", 0)
            + result.stats.get("postings_scanned", 0))


class TestChargedPages:
    def test_counts_serving_segments_and_not_dom_records(self, xmark_text):
        database = fresh(xmark_text)
        database.planner_for(database.document())
        segments = {segment.name: segment.pages
                    for segment in database.pages.segments()}
        serving = sum(pages for name, pages in segments.items()
                      if name.startswith(("succinct:structure:x.xml",
                                          "tagindex:x.xml:",
                                          "value-btree:x.xml",
                                          "numeric-btree:x.xml")))
        assert segments["dom:records:x.xml"] > 0
        assert database.document().charged_pages == serving

    def test_rate_follows_pool_capacity(self, xmark_text):
        resident = fresh(xmark_text)
        cold = fresh(xmark_text, pool_pages=8)
        assert resident.planner_for(
            resident.document()).cost_model.miss_rate == 0.0
        rate = cold.planner_for(cold.document()).cost_model.miss_rate
        assert rate == pytest.approx(1 - 8 / cold.document().charged_pages)

    def test_rate_is_set_once_per_version(self, xmark_text):
        database = fresh(xmark_text)
        first = database.document()
        database.query("//item/name")
        charged = first.charged_pages
        assert charged is not None
        database.insert("/site/regions/europe",
                        "<item><name>x</name></item>")
        successor = database.document()
        assert successor is not first
        assert successor.charged_pages is None
        assert first.charged_pages == charged


class TestPlannerRegret:
    def test_auto_work_within_bound_of_best_serving_strategy(self,
                                                             xmark_text):
        database = fresh(xmark_text)
        worst = (0.0, None)
        for query in Q20:
            auto = operator_work(database.query(query))
            best = float("inf")
            for strategy in SERVING:
                try:
                    result = database.query(query, strategy=strategy)
                except ReproError:
                    continue
                best = min(best, operator_work(result))
            worst = max(worst, (auto / max(best, 1), query))
        assert worst[0] <= 1.5, worst


class TestExplainPricesLikeQuery:
    def test_explain_first_does_not_change_auto(self, xmark_text):
        plain = fresh(xmark_text)
        explained = fresh(xmark_text)
        for query in Q20:
            text = explained.explain(query)
            picked = explained.query(query).strategy
            assert plain.query(query).strategy == picked, query
            assert f"tau strategy: {picked} " in text, query

    def test_explain_reports_the_pricing(self, xmark_text):
        database = fresh(xmark_text)
        text = database.explain("//item/name")
        charged = database.document().charged_pages
        assert (f"pages priced at miss rate 0.00 ({charged} charged "
                f"pages, 256-page pool)") in text
