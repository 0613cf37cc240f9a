"""Tests for the cost model (cardinality estimation + strategy choice)."""

import pytest

from repro.algebra.cost import CostEstimate, CostModel
from repro.algebra.pattern_graph import compile_path
from repro.storage.interval import IntervalDocument
from repro.storage.stats import DocumentStatistics
from repro.xml.parser import parse
from repro.xpath.parser import parse_xpath


def make_doc(books=50, authors_per_book=2):
    parts = ["<bib>"]
    for index in range(books):
        parts.append(f'<book year="{1990 + index % 20}">')
        parts.append(f"<title>Title {index}</title>")
        for a in range(authors_per_book):
            parts.append(f"<author>A{index}-{a}</author>")
        parts.append("</book>")
    parts.append("</bib>")
    return parse("".join(parts))


@pytest.fixture(scope="module")
def model_():
    doc = IntervalDocument.from_document(make_doc())
    return CostModel(DocumentStatistics(doc))


def pattern(text):
    return compile_path(parse_xpath(text))


class TestCardinality:
    def test_exact_child_chain(self, model_):
        assert model_.result_cardinality(pattern("/bib/book")) == 50.0
        assert model_.result_cardinality(
            pattern("/bib/book/author")) == 100.0

    def test_descendant_estimates(self, model_):
        estimate = model_.result_cardinality(pattern("//author"))
        assert estimate == pytest.approx(100.0, rel=0.01)

    def test_missing_tag_zero(self, model_):
        assert model_.result_cardinality(pattern("/bib/magazine")) == 0.0

    def test_value_constraint_shrinks_estimate(self, model_):
        plain = model_.result_cardinality(pattern("/bib/book"))
        filtered = model_.result_cardinality(
            pattern("/bib/book[@year = '1994']"))
        assert 0 < filtered < plain

    def test_branch_does_not_inflate_output(self, model_):
        with_branch = model_.result_cardinality(
            pattern("/bib/book[title]"))
        assert with_branch == 50.0


class TestStrategyChoice:
    def test_nok_costed_only_for_nok_patterns(self, model_):
        nok = pattern("/bib/book/title")
        general = pattern("//book//author")
        nok_strategies = {e.strategy for e in model_.all_costs(nok)}
        general_strategies = {e.strategy for e in model_.all_costs(general)}
        assert "nok" in nok_strategies
        assert "nok" not in general_strategies
        assert "partitioned" in general_strategies
        assert "partitioned" not in nok_strategies

    def test_nok_beats_joins_on_local_paths(self, model_):
        choice = model_.cheapest_strategy(pattern("/bib/book/title"))
        assert choice == "nok"

    def test_index_scan_wins_with_selective_predicate(self):
        # Large doc + unique values -> very selective equality.
        doc = IntervalDocument.from_document(make_doc(books=5000))
        model = CostModel(DocumentStatistics(doc))
        selective = pattern("/bib/book[title = 'Title 17']")
        assert model.cheapest_strategy(selective) == "index-scan"

    def test_index_scan_infinite_without_constraint(self, model_):
        estimate = model_.index_scan_cost(pattern("/bib/book"))
        assert estimate.total == float("inf")

    def test_costs_are_positive_and_ordered(self, model_):
        for estimate in model_.all_costs(pattern("//book/author")):
            assert estimate.pages > 0
            assert estimate.cpu >= 0


class TestMissRatePricing:
    def test_total_charges_only_missed_pages(self):
        assert CostEstimate("nok", pages=10.0, cpu=5000.0).total == 10.5
        warm = CostEstimate("nok", pages=10.0, cpu=5000.0, miss_rate=0.2)
        assert warm.total == pytest.approx(2.5)
        resident = CostEstimate("nok", pages=10.0, cpu=5000.0,
                                miss_rate=0.0)
        assert resident.total == pytest.approx(0.5)

    def test_resident_infinite_estimate_stays_infinite(self, model_):
        resident = CostModel(model_.stats, miss_rate=0.0)
        estimate = resident.index_scan_cost(pattern("/bib/book"))
        assert estimate.total == float("inf")

    def test_bare_model_prices_every_page_as_a_miss(self, model_):
        assert model_.miss_rate == 1.0
        for estimate in model_.all_costs(pattern("//book/author")):
            assert estimate.miss_rate == 1.0
            assert estimate.total == estimate.pages + estimate.cpu / 10_000

    def test_resident_model_picks_lowest_cpu(self, model_):
        resident = CostModel(model_.stats, miss_rate=0.0)
        local = pattern("/bib/book/title")
        assert model_.cheapest_strategy(local) == "nok"
        estimates = resident.all_costs(local)
        lowest = min(estimates, key=lambda e: e.cpu)
        assert resident.cheapest_strategy(local) == lowest.strategy
        assert lowest.strategy != "nok"
