"""Tests for the vectorized columnar execution path.

The load-bearing guarantee: for every eligible pattern the batch
kernels return *identical, order-sensitive* results to the
node-at-a-time strategies (navigational, TwigStack, partitioned NoK)
and to the reference evaluator — across a fixture document, randomized
documents, and the documented edge cases (empty postings, root-only
matches, text-predicate windows, sibling edges).  Plus the engine
wiring: per-query ``strategy="columnar"``, strategy-memo keying, update
invalidation of the cached column view, and the observability surface.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.database import Database
from repro.errors import ExecutionError
from repro.algebra.cost import CostModel
from repro.algebra.pattern_graph import compile_path
from repro.baselines.navigational import NavigationalMatcher
from repro.baselines.twigstack import TwigStackJoin
from repro.physical.columnar import ColumnarMatcher, columnar_eligible
from repro.physical.partition import PartitionedMatcher
from repro.physical.planner import STRATEGIES, PhysicalPlanner
from repro.xpath.parser import parse_xpath
from repro.xpath.semantics import evaluate_xpath
from tests.engine.alignment import (
    ShadowDocument, engine_keys, oracle_preorders)

SAMPLE = """
<site>
  <regions>
    <europe>
      <item id="i1"><name>Alpha</name><price>10</price>
        <desc><b>bold</b> text</desc></item>
      <item id="i2"><name>Beta</name><price>25</price></item>
    </europe>
    <asia>
      <item id="i3"><name>Gamma</name><price>10</price>
        <related><item id="i9"><name>Nested</name></item></related>
      </item>
    </asia>
  </regions>
  <people>
    <person id="p1"><name>Ann</name><watches><watch/></watches></person>
    <person id="p2"><name>Bob</name></person>
  </people>
</site>
"""

QUERIES = [
    "/site/regions",
    "/site/regions/europe/item",
    "/site/regions/europe/item/name",
    "/site/*/europe/item/price",
    "//item",
    "//item/name",
    "//item//name",
    "/site//item[name]",
    "//item[price]",
    "//item[price = 10]/name",
    "/site/regions//item[@id = 'i3']",
    "//person[watches]/name",
    "//item[name][price]",
    "/site/people/person/@id",
    "//@id",
    "//name/text()",
    "/site/regions/europe/item[name = 'Beta']",
    "//item[price > 10]",
    "//desc/b",
    "/site//watches/watch",
    "//name/following-sibling::price",
]


@pytest.fixture(scope="module")
def db():
    database = Database()
    database.load(SAMPLE, uri="site.xml")
    return database


def pattern_for(query):
    return compile_path(parse_xpath(query))


def expected_preorders(text, query):
    """The reference evaluator over an independent parse of ``text``."""
    return oracle_preorders(text, lambda tree: evaluate_xpath(query, tree))


class TestColumnarAgainstReference:
    @pytest.mark.parametrize("query", QUERIES)
    def test_matches_reference_and_navigational(self, db, query):
        pattern = pattern_for(query)
        assert columnar_eligible(pattern)
        runtime = db.document().runtime
        expected = expected_preorders(SAMPLE, query)
        # Order-sensitive: exact list equality, not set equality.
        assert ColumnarMatcher(pattern).run(runtime) == expected, query
        assert NavigationalMatcher(pattern).run(runtime) == expected

    @pytest.mark.parametrize("query", [
        "//item", "//item/name", "//item//name", "//item[name][price]",
        "//item[price = 10]/name",
    ])
    def test_matches_twigstack_item_for_item(self, db, query):
        pattern = pattern_for(query)
        runtime = db.document().runtime
        assert ColumnarMatcher(pattern).run(runtime) == \
            TwigStackJoin(pattern).run(runtime)

    def test_planner_every_strategy_agrees(self, db):
        runtime = db.document().runtime
        planner = PhysicalPlanner(CostModel(db.document().statistics))
        results = {}
        for strategy in ("nok", "partitioned", "twigstack",
                         "navigational", "columnar", "auto"):
            matches, _, _ = planner.match(
                pattern_for("/site/regions/europe/item/name"), runtime,
                strategy=strategy)
            results[strategy] = tuple(matches)
        assert len(set(results.values())) == 1


class TestEdgeCases:
    def test_empty_postings(self, db):
        """A tag with no postings anywhere: every stage sees empty
        arrays and the result is empty, not an error."""
        runtime = db.document().runtime
        assert ColumnarMatcher(pattern_for("//nonexistent")).run(
            runtime) == []
        assert ColumnarMatcher(
            pattern_for("//item/nonexistent")).run(runtime) == []

    def test_root_only_match(self, db):
        """The document element itself is the only match."""
        query = "/site"
        assert ColumnarMatcher(pattern_for(query)).run(
            db.document().runtime) == expected_preorders(SAMPLE, query)

    def test_branch_prunes_root_to_empty(self, db):
        """A failing branch on the root-anchored chain empties the
        result during the bottom-up pass."""
        assert ColumnarMatcher(pattern_for("/site[missing]/people")).run(
            db.document().runtime) == []

    def test_text_predicate_window(self, db):
        """Value constraints on text nodes are checked per candidate
        inside the shrunken window."""
        for query in ("//name[. = 'Beta']", "//name/text()",
                      "//item[name = 'Gamma']//name"):
            assert ColumnarMatcher(pattern_for(query)).run(
                db.document().runtime) == expected_preorders(SAMPLE, query), \
                query

    def test_sibling_edges(self, db):
        query = "//name/following-sibling::price"
        assert ColumnarMatcher(pattern_for(query)).run(
            db.document().runtime) == expected_preorders(SAMPLE, query)

    def test_context_window_anchoring(self, db):
        """Anchored below the document root, candidates outside the
        context subtree window never appear."""
        runtime = db.document().runtime
        # pre id of <people>: evaluate its own query first.
        people = expected_preorders(SAMPLE, "/site/people")[0]
        pattern = compile_path(parse_xpath("name"),
                               root_kind="context")
        matches = ColumnarMatcher(pattern).run(runtime, root=people)
        assert matches == []  # name is not a *child* of people
        pattern = compile_path(parse_xpath(".//name"),
                               root_kind="context")
        matches = ColumnarMatcher(pattern).run(runtime, root=people)
        expected = [p for p in expected_preorders(SAMPLE, "//person/name")]
        assert matches == expected


RESIDUAL_QUERIES = [
    "//item[name or price]",
    "//item[not(related)]",
    "//item[count(name) = 1]",
    "//person[name = 'Ann' or watches]/name",
]


class TestResidualPatterns:
    """Residual predicates run through the batch post-filter: each
    vertex's candidate window is checked against the engine's
    reference-evaluator callback before the semi-joins — the same
    node-local check every join strategy applies."""

    def test_residuals_are_eligible(self):
        for query in RESIDUAL_QUERIES:
            pattern = pattern_for(query)
            assert pattern.has_residuals(), query
            assert columnar_eligible(pattern), query

    @pytest.mark.parametrize("query", RESIDUAL_QUERIES)
    def test_residual_parity_against_reference(self, db, query):
        pattern = pattern_for(query)
        runtime = db.document().runtime
        expected = expected_preorders(SAMPLE, query)
        assert ColumnarMatcher(pattern).run(runtime) == expected, query
        assert NavigationalMatcher(pattern).run(runtime) == expected
        assert PartitionedMatcher(pattern).run(runtime) == expected

    @pytest.mark.parametrize("query", RESIDUAL_QUERIES)
    def test_residual_parity_through_database(self, db, query):
        """Forced columnar through Database.query answers exactly like
        the reference interpreter, item for item."""
        columnar = db.query(query, strategy="columnar")
        expected = ShadowDocument(SAMPLE, uri="site.xml").keys(query)
        assert engine_keys(db, columnar) == expected, query

    def test_residual_filter_is_accounted(self, db):
        pattern = pattern_for("//item[name or price]")
        matcher = ColumnarMatcher(pattern)
        matcher.run(db.document().runtime)
        detail = matcher.stats.detail
        assert detail.get("columnar.residual_checked", 0) > 0

    def test_residual_cost_penalty(self, db):
        """The cost model charges residual vertices the per-candidate
        evaluator price, so auto mode stays conservative."""
        model = CostModel(db.document().statistics)
        plain = model.columnar_cost(pattern_for("//item[name]"))
        residual = model.columnar_cost(
            pattern_for("//item[name or price]"))
        assert residual.cpu > plain.cpu


class TestEligibilityAndFallback:
    def test_residual_without_checker_falls_back(self, db):
        """A bare runtime (no engine residual callback) cannot check
        residuals in *any* strategy; the matcher raises so the planner
        (and the engine above it) can react."""
        from repro.physical.base import MatchRuntime

        document = db.document()
        bare = MatchRuntime(document.interval, document.tag_index)
        pattern = pattern_for("//item[name or price]")
        assert columnar_eligible(pattern)
        with pytest.raises(ExecutionError):
            ColumnarMatcher(pattern).run(bare)

    def test_multi_output_is_ineligible(self, db):
        pattern = pattern_for("//item/name")
        pattern.vertices[1].output = True  # second output vertex
        assert not columnar_eligible(pattern)

    def test_planner_falls_back_on_ineligible(self, db):
        """Forced columnar on a pattern the kernels cannot express
        (multi-output) lands on the working fallback strategy."""
        planner = PhysicalPlanner(CostModel(db.document().statistics))
        pattern = pattern_for("//item/name")
        pattern.vertices[1].output = True
        with pytest.raises(ExecutionError):
            # match() needs a single output; the fallback path also
            # rejects it, which is the contract (use match_bindings).
            planner.match(pattern, db.document().runtime,
                          strategy="columnar")

    def test_planner_forced_columnar_handles_residuals(self, db):
        planner = PhysicalPlanner(CostModel(db.document().statistics))
        matches, _, used = planner.match(
            pattern_for("//item[name or price]"),
            db.document().runtime, strategy="columnar")
        assert used == "columnar"
        assert matches == expected_preorders(SAMPLE, "//item[name or price]")

    def test_columnar_is_a_strategy(self):
        assert "columnar" in STRATEGIES


class TestKnobAndMemo:
    def test_forced_on_uses_columnar(self):
        database = Database(result_cache_size=0)
        database.load(SAMPLE, uri="site.xml")
        result = database.query("//item/name", strategy="columnar")
        assert result.strategy == "columnar"

    def test_explicit_strategy_overrides_auto(self):
        database = Database(result_cache_size=0)
        database.load(SAMPLE, uri="site.xml")
        database.query("//item/name")          # memoizes the auto choice
        result = database.query("//item/name", strategy="columnar")
        assert result.strategy == "columnar"
        assert len(result.items) == 4
        document = database.document()
        assert document.strategy_memo
        # Memo keys are (signature, generation): the generation sits at
        # index 1 (the serving-layer contract).
        for key in document.strategy_memo:
            assert len(key) == 2
            assert key[1] == document.statistics.generation


class TestViewLifecycle:
    def test_view_is_built_once_and_shared(self, db):
        runtime = db.document().runtime
        view_a = runtime.columnar_view()
        view_b = runtime.columnar_view()
        assert view_a is view_b
        assert view_a.node_count == len(db.document().interval)
        assert view_a.size_bytes() > 0

    def test_kindless_view_matches_kinded_view(self, db):
        """Regression: a view once cached *empty* kind arrays —
        wildcard/kind vertices silently matched zero rows.  Every kind
        array the view derives must equal a scan of the interval
        store's kind column."""
        from repro.storage.succinct import (
            KIND_ATTRIBUTE,
            KIND_ELEMENT,
            KIND_TEXT,
        )

        document = db.document()
        view = document.runtime.columnar_view()
        kinds = document.interval.kinds
        for kind, derived in ((KIND_ELEMENT, view.element_pres()),
                              (KIND_ATTRIBUTE, view.attribute_pres()),
                              (KIND_TEXT, view.text_pres())):
            scanned = [pre for pre, k in enumerate(kinds) if k == kind]
            assert list(derived) == scanned
            # The fixture has elements, attributes (@id) and text nodes —
            # none of these may be empty (the old bug's symptom).
            assert scanned

    def test_kindless_runtime_queries_match(self):
        """End-to-end: a kind-probing columnar query (``//@id``) answers
        what the reference evaluator does, not zero rows."""
        database = Database(result_cache_size=0)
        database.load(SAMPLE, uri="site.xml")
        reference = ShadowDocument(SAMPLE, uri="site.xml").values("//@id")
        result = database.query("//@id", strategy="columnar")
        assert result.values() == reference and reference

    def test_update_invalidates_view(self):
        database = Database(result_cache_size=0)
        database.load("<r><a><b/></a></r>", uri="u.xml")
        runtime = database.document().runtime
        before = database.query("//b", strategy="columnar").items
        assert len(before) == 1
        assert runtime.column_builds == 1
        database.insert("/r/a", "<b/>")
        after = database.query("//b", strategy="columnar")
        assert after.strategy == "columnar"
        assert len(after.items) == 2
        # MVCC: the insert published a successor version with its own
        # runtime; the new version builds its own view once, while the
        # pinned version's view stays valid for readers still on it.
        new_runtime = database.document().runtime
        assert new_runtime is not runtime
        assert new_runtime.column_builds == 1
        assert runtime.column_builds == 1

    def test_delete_invalidates_view(self):
        database = Database(result_cache_size=0)
        database.load("<r><a><b/></a><a><b/></a></r>", uri="u.xml")
        assert len(database.query("//b", strategy="columnar").items) == 2
        database.delete("/r/a[2]")
        assert len(database.query("//b", strategy="columnar").items) == 1

    def test_observability_counters(self):
        database = Database(result_cache_size=0)
        database.load(SAMPLE, uri="site.xml")
        database.query("//item/name", strategy="columnar")
        text = database.metrics_text()
        assert "repro_columnar_view_builds_total" in text
        assert "repro_columnar_view_bytes" in text
        assert 'repro_queries_total{strategy="columnar"' in text

    def test_explain_analyze_reports_columnar(self):
        database = Database(result_cache_size=0)
        database.load(SAMPLE, uri="site.xml")
        analysis = database.explain("//item/name", strategy="columnar",
                                     analyze=True)
        rendered = str(analysis)
        assert "columnar" in rendered
        records = [r for r in analysis.operators
                   if r.strategy == "columnar"]
        assert records and records[0].est_pages is not None


# -- randomized differential testing ------------------------------------------

_TAGS = ["a", "b", "c", "d"]


@st.composite
def random_documents(draw):
    def subtree(depth):
        tag = draw(st.sampled_from(_TAGS))
        attrs = ""
        if draw(st.booleans()):
            attrs = f' k="{draw(st.integers(0, 3))}"'
        if depth == 0:
            return f"<{tag}{attrs}>{draw(st.integers(0, 5))}</{tag}>"
        inner = "".join(subtree(depth - 1)
                        for _ in range(draw(st.integers(0, 3))))
        return f"<{tag}{attrs}>{inner}</{tag}>"
    return f"<root>{subtree(3)}{subtree(3)}</root>"


_RANDOM_QUERIES = [
    "/root/a", "//a", "//a/b", "//a//b", "/root//c", "//b[c]",
    "//a[b][c]", "//a[@k]", "//a[@k = '1']", "//*/b", "//a/*",
    "//b/text()", "//a[b = 3]", "//a[b]//c", "//a/b/following-sibling::c",
]


@given(random_documents(), st.sampled_from(_RANDOM_QUERIES))
@settings(max_examples=60, deadline=None)
def test_random_differential(text, query):
    """Property: on arbitrary documents every supported pattern returns
    identical (order-sensitive) results to the node-at-a-time
    strategies and the reference evaluator."""
    database = Database()
    database.load(text, uri="random.xml")
    runtime = database.document().runtime
    expected = expected_preorders(text, query)
    pattern = pattern_for(query)
    assert columnar_eligible(pattern)

    assert ColumnarMatcher(pattern).run(runtime) == expected, query
    assert NavigationalMatcher(pattern).run(runtime) == expected
    if not pattern.is_nok():
        assert PartitionedMatcher(pattern).run(runtime) == expected
