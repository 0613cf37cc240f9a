"""Differential tests: every physical strategy == the reference evaluator.

This is the load-bearing correctness suite of the reproduction: NoK,
partitioned NoK, binary structural joins, PathStack, TwigStack,
navigational, and index-scan must all agree with the specification
(:mod:`repro.xpath.semantics`) on a fixture document and on randomized
documents × queries.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.database import Database
from repro.errors import ExecutionError
from repro.algebra.pattern_graph import compile_path
from repro.baselines.navigational import NavigationalMatcher
from repro.baselines.pathstack import PathStackJoin
from repro.baselines.structural_join import BinaryJoinMatcher
from repro.baselines.twigstack import TwigStackJoin
from repro.physical.indexscan import IndexScanMatcher
from repro.physical.nok import NoKMatcher, run_shared_scan
from repro.physical.partition import PartitionedMatcher, partition_pattern
from repro.xpath.parser import parse_xpath
from repro.xpath.semantics import evaluate_xpath
from tests.engine.alignment import oracle_preorders

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
    "//person/@id",
    "//*/name",
    "//item//text()",
]


@pytest.fixture(scope="module")
def db():
    database = Database()
    database.load(SAMPLE, uri="site.xml")
    return database


def expected_preorders(text, query):
    """The reference evaluator over an independent parse of ``text``."""
    return oracle_preorders(text, lambda tree: evaluate_xpath(query, tree))


def pattern_for(query):
    return compile_path(parse_xpath(query))


MATCHER_FACTORIES = {
    "nok/partitioned": lambda p: (NoKMatcher(p) if p.is_nok()
                                  else PartitionedMatcher(p)),
    "structural-join": BinaryJoinMatcher,
    "twigstack": TwigStackJoin,
    "navigational": NavigationalMatcher,
}


class TestStrategiesAgainstReference:
    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("name", sorted(MATCHER_FACTORIES))
    def test_strategy_matches_reference(self, db, query, name):
        pattern = pattern_for(query)
        expected = expected_preorders(SAMPLE, query)
        runtime = db.document().runtime
        matcher = MATCHER_FACTORIES[name](pattern)
        if isinstance(matcher, NoKMatcher):
            output = pattern.output_vertices()[0].vertex_id
            bindings = matcher.run(runtime)
            actual = sorted({b[output] for b in bindings if output in b})
        else:
            actual = matcher.run(runtime)
        assert actual == expected, f"{name} diverged on {query}"

    @pytest.mark.parametrize("query", [
        "/site/regions/europe/item/name",
        "//item",
        "//item/name",
        "/site//item//name",
        "//name/text()",
    ])
    def test_pathstack_on_linear_queries(self, db, query):
        pattern = pattern_for(query)
        actual = PathStackJoin(pattern).run(db.document().runtime)
        assert actual == expected_preorders(SAMPLE, query)

    @pytest.mark.parametrize("query", [
        "//item[price = 10]/name",
        "/site/regions/europe/item[name = 'Beta']",
        "/site/regions//item[@id = 'i3']",
    ])
    def test_indexscan_on_value_queries(self, db, query):
        pattern = pattern_for(query)
        actual = IndexScanMatcher(pattern).run(db.document().runtime)
        assert actual == expected_preorders(SAMPLE, query)

    def test_pathstack_rejects_twigs(self, db):
        with pytest.raises(ExecutionError):
            PathStackJoin(pattern_for("//item[name][price]"))

    def test_indexscan_needs_equality(self, db):
        with pytest.raises(ExecutionError):
            IndexScanMatcher(pattern_for("//item"))

    def test_nok_rejects_descendant_edges(self, db):
        with pytest.raises(ExecutionError):
            NoKMatcher(pattern_for("//item"))

    def test_sibling_query_via_partition(self, db):
        query = "//name/following-sibling::price"
        pattern = pattern_for(query)
        assert not pattern.is_nok()
        actual = PartitionedMatcher(pattern).run(db.document().runtime)
        assert actual == expected_preorders(SAMPLE, query)

    def test_residual_predicates_supported(self, db):
        query = "//item[name or price]"
        pattern = pattern_for(query)
        actual = PartitionedMatcher(pattern).run(db.document().runtime)
        assert actual == expected_preorders(SAMPLE, query)


class TestSharedScan:
    # QUERIES holds every kind of unanchored partition root the scan
    # hands to the automaton: a labelled element (//item/name), an
    # attribute (//person/@id, //@id), a wildcard (//*/name) and text
    # (//item//text()).
    @pytest.mark.parametrize("query", QUERIES)
    def test_run_is_a_one_matcher_shared_scan(self, db, query):
        runtime = db.document().runtime
        for partition in partition_pattern(pattern_for(query)):
            anchored = partition.cut_edge is None
            alone = NoKMatcher(partition.pattern, anchored)
            shared = NoKMatcher(partition.pattern, anchored)
            assert alone.run(runtime) == \
                run_shared_scan(runtime, [shared])[0]
            assert alone.stats.nodes_visited == \
                shared.stats.nodes_visited
            assert alone.stats.intermediate_results == \
                shared.stats.intermediate_results


class TestStats:
    def test_nok_counts_one_pass(self, db):
        pattern = pattern_for("/site/regions/europe/item/name")
        matcher = NoKMatcher(pattern)
        matcher.run(db.document().runtime)
        assert matcher.stats.nodes_visited == \
            len(db.document().interval)

    @pytest.mark.parametrize("query", ["//item/name", "/site//item//name"])
    def test_shared_scan_counts_each_matchers_intermediates(self, db,
                                                            query):
        runtime = db.document().runtime
        partitions = partition_pattern(pattern_for(query))
        assert len(partitions) >= 2

        def matchers():
            return [NoKMatcher(partition.pattern,
                               anchored=partition.cut_edge is None)
                    for partition in partitions]

        alone = matchers()
        for matcher in alone:
            matcher.run(runtime)
        shared = matchers()
        run_shared_scan(runtime, shared)
        assert [m.stats.intermediate_results for m in shared] == \
            [m.stats.intermediate_results for m in alone]

    def test_joins_count_postings(self, db):
        pattern = pattern_for("//item/name")
        matcher = BinaryJoinMatcher(pattern)
        matcher.run(db.document().runtime)
        assert matcher.stats.postings_scanned > 0
        assert matcher.stats.structural_joins >= 2

    def test_partitioned_counts_cut_joins(self, db):
        pattern = pattern_for("/site//item//name")
        matcher = PartitionedMatcher(pattern)
        matcher.run(db.document().runtime)
        assert matcher.join_count() == 2
        assert matcher.stats.structural_joins == 2

    def test_twigstack_intermediate_bounded(self, db):
        pattern = pattern_for("//item[name][price]")
        twig = TwigStackJoin(pattern)
        twig.run(db.document().runtime)
        binary = BinaryJoinMatcher(pattern)
        binary.run(db.document().runtime)
        assert twig.stats.intermediate_results <= \
            binary.stats.intermediate_results + \
            binary.stats.postings_scanned


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
    "//b/text()", "//a[b = 3]", "//a[b]//c",
]


@given(random_documents(), st.sampled_from(_RANDOM_QUERIES))
@settings(max_examples=60, deadline=None)
def test_random_differential(text, query):
    database = Database()
    database.load(text, uri="random.xml")
    doc = database.document()
    expected = expected_preorders(text, query)
    pattern = compile_path(parse_xpath(query))
    runtime = doc.runtime

    strategies = {
        "joins": BinaryJoinMatcher(pattern),
        "twig": TwigStackJoin(pattern),
        "nav": NavigationalMatcher(pattern),
    }
    if pattern.is_nok():
        nok = NoKMatcher(pattern)
        output = pattern.output_vertices()[0].vertex_id
        bindings = nok.run(runtime)
        assert sorted({b[output] for b in bindings
                       if output in b}) == expected
    else:
        assert PartitionedMatcher(pattern).run(runtime) == expected
    for name, matcher in strategies.items():
        assert matcher.run(runtime) == expected, name


class TestJoinOrderSelection:
    """Reference [5] of the paper: structural join order selection —
    joining against the smallest candidate list first shrinks the
    intermediates of every later join."""

    def test_selective_branch_first_reduces_work(self):
        # Many items have <common/>, almost none have <rare/>: joining
        # rare first reduces the item list before the big common join.
        parts = ["<r>"]
        for index in range(300):
            rare = "<rare/>" if index == 7 else ""
            parts.append(f"<item><common/>{rare}</item>")
        parts.append("</r>")
        database = Database()
        database.load("".join(parts), uri="skew.xml")
        runtime = database.document().runtime
        pattern = pattern_for("//item[common][rare]")

        ordered = BinaryJoinMatcher(pattern, reorder=True)
        result_ordered = ordered.run(runtime)
        naive = BinaryJoinMatcher(pattern, reorder=False)
        result_naive = naive.run(runtime)

        assert result_ordered == result_naive
        assert len(result_ordered) == 1
        assert ordered.stats.postings_scanned < \
            naive.stats.postings_scanned
