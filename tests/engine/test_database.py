"""End-to-end tests for the Database facade: every strategy, XQuery
through the engine, EXPLAIN, reports, and error handling."""

import pytest

from repro.engine.database import Database
from repro.errors import ExecutionError
from repro.xml.model import Element
from tests.engine.alignment import ShadowDocument, engine_preorders

BIB = """
<bib>
  <book year="1994"><title>TCP/IP</title>
    <author><last>Stevens</last></author><price>65.95</price></book>
  <book year="2000"><title>Data on the Web</title>
    <author><last>Abiteboul</last></author>
    <author><last>Buneman</last></author><price>39.95</price></book>
  <book year="1999"><title>Economics</title><price>129.95</price></book>
</bib>
"""

STRATEGIES = ["auto", "nok", "partitioned", "structural-join",
              "pathstack", "twigstack", "navigational"]

QUERIES = [
    "/bib/book/title",
    "//book[price > 50]/title",
    "//last",
    "/bib/book[@year = '1994']",
    "//book[author]/price",
]


@pytest.fixture(scope="module")
def db():
    database = Database()
    database.load(BIB, uri="bib.xml")
    return database


class TestQueryAcrossStrategies:
    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_all_strategies_agree_with_reference(self, db, query, strategy):
        expected = ShadowDocument(BIB, uri="bib.xml").preorders(query)
        assert engine_preorders(db, query, strategy) == expected

    def test_index_scan_strategy(self, db):
        result = db.query("//book[title = 'Economics']",
                          strategy="index-scan")
        assert result.values() == ["Economics129.95"]
        assert result.strategy == "index-scan"

    def test_result_metadata(self, db):
        result = db.query("/bib/book/title", strategy="nok")
        assert result.strategy == "nok"
        assert result.elapsed_seconds >= 0
        assert result.stats["solutions"] == 3
        assert result.io["page_reads"] >= 0
        assert len(result) == 3
        assert list(result) == result.items

    def test_values_and_serialize(self, db):
        result = db.query("/bib/book[1]/title")
        assert result.values() == ["TCP/IP"]
        assert result.serialize() == "<title>TCP/IP</title>"


class TestXQueryThroughEngine:
    def test_flwor(self, db):
        result = db.query(
            'for $b in doc("bib.xml")/bib/book where $b/price > 50 '
            "order by $b/price return $b/title")
        assert result.values() == ["TCP/IP", "Economics"]

    def test_flwor_uses_physical_tau(self, db):
        result = db.query(
            'for $b in doc("bib.xml")/bib/book return $b/title',
            strategy="nok")
        assert result.strategy == "nok"
        assert len(result) == 3

    def test_constructor_query(self, db):
        result = db.query(
            '<list>{ for $b in doc("bib.xml")/bib/book '
            "return <entry>{$b/title/text()}</entry> }</list>")
        assert len(result) == 1
        entries = list(result.items[0].child_elements("entry"))
        assert [e.string_value() for e in entries] == [
            "TCP/IP", "Data on the Web", "Economics"]

    def test_aggregation(self, db):
        result = db.query('count(doc("bib.xml")//author)')
        assert result.items == [3.0]

    def test_positional_fallback(self, db):
        # Positional predicates cannot enter patterns; the engine must
        # still answer through the interpreter fallback.
        result = db.query("/bib/book[2]/title")
        assert result.values() == ["Data on the Web"]


class TestMultipleDocuments:
    def test_two_documents(self):
        database = Database()
        database.load("<a><x/></a>", uri="one.xml")
        database.load("<b><y/></b>", uri="two.xml")
        assert len(database.query('doc("two.xml")/b/y')) == 1
        assert len(database.query("/a/x", uri="one.xml")) == 1

    def test_default_document_is_first(self):
        database = Database()
        database.load("<a/>", uri="one.xml")
        database.load("<b/>", uri="two.xml")
        assert database.document().uri == "one.xml"


class TestExplainAndReports:
    def test_explain_shows_strategy_and_pattern(self, db):
        text = db.explain("/bib/book/title")
        assert "Tau" in text
        assert "tau strategy:" in text
        assert "book" in text

    def test_explain_respects_forced_strategy(self, db):
        text = db.explain("/bib/book", strategy="navigational")
        assert "navigational" in text

    def test_storage_report(self, db):
        report = db.storage_report()
        assert report["nodes"] == len(db.document().interval)
        assert report["succinct"]["total"] > 0
        assert report["interval"]["total"] > 0

    def test_auto_picks_nok_for_local_paths(self):
        # The paper's setting: a cold pool prices the one structure
        # scan below a posting read per pattern vertex.
        cold = Database(pool_pages=2)
        cold.load(BIB, uri="bib.xml")
        assert cold.planner_for(cold.document()).cost_model.miss_rate \
            == pytest.approx(1 - 2 / cold.document().charged_pages)
        result = cold.query("/bib/book/title", strategy="auto")
        assert result.strategy == "nok"

    def test_resident_auto_picks_lowest_cpu_estimate(self, db):
        from repro.algebra.pattern_graph import compile_path
        from repro.xpath.parser import parse_xpath

        model = db.planner_for(db.document()).cost_model
        assert model.miss_rate == 0.0
        estimates = model.all_costs(
            compile_path(parse_xpath("/bib/book/title")))
        lowest = min(estimates, key=lambda estimate: estimate.cpu)
        result = db.query("/bib/book/title", strategy="auto")
        assert result.strategy == lowest.strategy


class TestErrors:
    def test_unknown_strategy(self, db):
        with pytest.raises(ExecutionError):
            db.query("/bib", strategy="warp-drive")

    def test_explain_rejects_unknown_strategy(self, db):
        with pytest.raises(ExecutionError, match="unknown strategy 'bogus'"):
            db.explain("/bib/book/title", strategy="bogus")
        with pytest.raises(ExecutionError, match="unknown strategy 'bogus'"):
            db.explain("/bib/book/title", strategy="bogus", analyze=True)

    def test_explain_request_rejects_unknown_strategy(self, db):
        request = {"verb": "explain", "text": "/bib/book/title",
                   "strategy": "bogus"}
        with pytest.raises(ExecutionError, match="unknown strategy 'bogus'"):
            db.execute_request(request)
        request["strategy"] = "navigational"
        response = db.execute_request(request)
        assert response["ok"]
        assert "tau strategy: navigational" in response["explanation"]

    def test_unknown_document(self, db):
        with pytest.raises(ExecutionError):
            db.document("nope.xml")

    def test_empty_database(self):
        with pytest.raises(ExecutionError):
            Database().query("/a")

    def test_load_tree(self):
        from repro.xml.model import Document
        tree = Document(uri="t.xml")
        tree.append(Element("root"))
        database = Database()
        database.load_tree(tree, uri="t.xml")
        assert len(database.query("/root")) == 1


class TestExplainPartitions:
    def test_partitioned_explain_lists_cuts(self, db):
        text = db.explain("//book//last", strategy="partitioned")
        assert "partitions: 3 NoK units" in text
        assert "[//, //]" in text


class TestExternalVariables:
    def test_variable_in_predicate(self, db):
        result = db.query("//book[title = $t]/price",
                          variables={"t": ["Economics"]})
        assert result.values() == ["129.95"]

    def test_variable_in_flwor(self, db):
        result = db.query(
            'for $b in doc("bib.xml")//book where $b/price > $limit '
            "return $b/title", variables={"limit": [50.0]})
        assert result.values() == ["TCP/IP", "Economics"]

    def test_undefined_variable_still_errors(self, db):
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            db.query("//book[title = $missing]")


class TestMultiDocumentJoins:
    def test_flwor_join_across_documents(self):
        database = Database()
        database.load("<orders><o item='i2'/><o item='i3'/></orders>",
                      uri="orders.xml")
        database.load("<items><i id='i1'>anvil</i><i id='i2'>rope</i>"
                      "<i id='i3'>rocket</i></items>", uri="items.xml")
        result = database.query(
            'for $o in doc("orders.xml")//o, '
            '$i in doc("items.xml")//i '
            "where $o/@item = $i/@id "
            "return $i/text()")
        assert result.values() == ["rope", "rocket"]

    def test_constructor_merging_two_documents(self):
        database = Database()
        database.load("<a><x>1</x></a>", uri="a.xml")
        database.load("<b><y>2</y></b>", uri="b.xml")
        result = database.query(
            '<merged>{doc("a.xml")//x}{doc("b.xml")//y}</merged>')
        assert [c.tag for c in result.items[0].child_elements()] == \
            ["x", "y"]
