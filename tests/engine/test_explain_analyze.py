"""EXPLAIN ANALYZE tests: instrumented execution reports per-operator
actuals (rows, nodes, postings, pages, time) next to the cost model's
estimates, across the join strategies the paper compares."""

import pytest

from repro.engine.database import Database
from repro.observability.analyze import ExplainAnalysis, OperatorRecord

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

QUERY = "//book[price > 50]/title"


@pytest.fixture(scope="module")
def db():
    database = Database()
    database.load(BIB, uri="bib.xml")
    return database


class TestExplainWithoutAnalyze:
    def test_still_returns_plain_text(self, db):
        text = db.explain(QUERY)
        assert isinstance(text, str)
        assert "tau strategy:" in text


class TestExplainAnalyze:
    @pytest.mark.parametrize("strategy",
                             ["nok", "twigstack", "structural-join"])
    def test_actuals_next_to_estimates(self, db, strategy):
        analysis = db.explain(QUERY, strategy=strategy, analyze=True)
        assert isinstance(analysis, ExplainAnalysis)
        assert analysis.result_rows == 2  # 65.95 and 129.95
        assert analysis.operators, "at least one tau instrumented"
        record = analysis.operators[0]
        assert isinstance(record, OperatorRecord)
        # Actuals.
        assert record.actual_rows == 2
        assert record.elapsed_seconds > 0
        assert record.pages_read >= 0
        assert record.postings_scanned + record.nodes_visited > 0
        # Estimates from the cost model, next to the actuals.
        assert record.est_rows > 0
        assert record.rows_drift == pytest.approx(
            record.actual_rows / record.est_rows)
        # The strategy actually used is reported per operator.
        assert record.strategy
        if strategy != "nok":  # nok falls back (non-local // edge)
            assert record.strategy == strategy

    def test_est_pages_present_for_costed_strategy(self, db):
        analysis = db.explain(QUERY, strategy="columnar", analyze=True)
        record = analysis.operators[0]
        assert record.strategy == "columnar"
        assert record.est_pages is not None
        assert record.est_pages >= 0

    def test_forced_baseline_has_no_page_estimate(self, db):
        # The cost model prices serving strategies only.
        analysis = db.explain(QUERY, strategy="twigstack", analyze=True)
        record = analysis.operators[0]
        assert record.strategy == "twigstack"
        assert record.est_pages is None
        lines = str(analysis).splitlines()
        header = next(line for line in lines if line.startswith("operator"))
        row = next(line for line in lines
                   if line.startswith(record.operator))
        assert row[header.index("est.pages"):].split()[0] == "-"

    def test_join_strategy_reports_join_actuals(self, db):
        analysis = db.explain(QUERY, strategy="structural-join",
                              analyze=True)
        record = analysis.operators[0]
        assert record.structural_joins > 0
        assert record.intermediate_results > 0

    def test_detail_counters_surface(self, db):
        analysis = db.explain(QUERY, strategy="twigstack", analyze=True)
        record = analysis.operators[0]
        # The twig evaluator notes its per-vertex stream sizes.
        assert any(key.startswith("stream.") for key in record.detail)

    def test_rendered_table(self, db):
        analysis = db.explain(QUERY, strategy="structural-join",
                              analyze=True)
        rendered = str(analysis)
        assert "EXPLAIN ANALYZE" in rendered
        for header in ("operator", "est.rows", "rows", "drift",
                       "pages", "time"):
            assert header in rendered
        assert "total: 2 rows" in rendered

    def test_to_dict_round_trip(self, db):
        analysis = db.explain(QUERY, strategy="twigstack", analyze=True)
        as_dict = analysis.to_dict()
        assert as_dict["result_rows"] == 2
        assert as_dict["operators"][0]["actual_rows"] == 2
        assert "rows_drift" in as_dict["operators"][0]

    def test_counts_into_metric(self, db):
        before = db.observability.registry.value(
            "repro_explain_analyze_total")
        db.explain(QUERY, analyze=True)
        after = db.observability.registry.value(
            "repro_explain_analyze_total")
        assert after == before + 1

    def test_analyze_bypasses_result_cache(self, db):
        db.query(QUERY)  # prime the result cache
        analysis = db.explain(QUERY, analyze=True)
        # A cached result would report no operator work at all.
        assert analysis.operators
        assert analysis.operators[0].elapsed_seconds > 0

    def test_multi_tau_query(self, db):
        analysis = db.explain(
            "for $b in //book where $b/price > 50 return $b/title",
            analyze=True)
        assert analysis.result_rows == 2
        assert len(analysis.operators) >= 1
        for record in analysis.operators:
            assert record.actual_rows >= 0
            assert record.est_rows >= 0


class TestOperatorRecordUnits:
    def test_rows_drift_infinity_safe(self):
        record = OperatorRecord(
            operator="tau[x]", strategy="nok", est_rows=0.0,
            est_pages=None, actual_rows=3, nodes_visited=0,
            postings_scanned=0, intermediate_results=0,
            structural_joins=0, pages_read=0, pool_hits=0,
            elapsed_seconds=0.001)
        assert record.rows_drift == float("inf")
        record.actual_rows = 0
        assert record.rows_drift == 1.0

    def test_render_handles_missing_estimates(self):
        record = OperatorRecord(
            operator="tau[x]", strategy="nok", est_rows=0.0,
            est_pages=None, actual_rows=1, nodes_visited=2,
            postings_scanned=3, intermediate_results=0,
            structural_joins=0, pages_read=0, pool_hits=0,
            elapsed_seconds=0.001)
        analysis = ExplainAnalysis(
            plan_text="plan", operators=[record], result_rows=1,
            elapsed_seconds=0.002)
        rendered = str(analysis)
        assert "inf" in rendered
        assert "-" in rendered  # est.pages placeholder
