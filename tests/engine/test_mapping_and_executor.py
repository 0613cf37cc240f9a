"""Tests for model↔storage alignment and the physical executor plumbing."""

import pytest

from repro.engine.database import Database
from repro.algebra.operators import storage_tag
from repro.xml.model import Document, Element, Text
from repro.xml.parser import parse
from tests.engine.alignment import storage_groups


class TestMapping:
    """A version's result nodes are handles on its label columns."""

    def test_alignment_with_succinct_numbering(self):
        text = ('<a x="1" y="2">t1<b z="3">t2</b>t3<!--c--><?p d?></a>')
        tree = parse(text, keep_whitespace=True)
        database = Database()
        document = database.load_tree(tree, uri="m.xml")
        nodes = [document.node_for(preorder)
                 for preorder in range(len(document.interval))]
        assert isinstance(nodes[0], Document) and nodes[0].uri == "m.xml"
        for preorder, node in enumerate(nodes):
            assert node.pre == preorder
            assert storage_tag(node) == document.interval.tags[preorder], \
                preorder
        # The same numbering an independent grouping of the source
        # tree gives.
        assert [storage_tag(group[0]) for group in storage_groups(tree)] \
            == [storage_tag(node) for node in nodes]

    @pytest.mark.tree_api
    def test_adjacent_texts_merge_to_one_storage_node(self):
        tree = Document()
        root = tree.append(Element("r"))
        root.append(Text("a"))
        root.append(Text("b"))  # bypasses append_text merging
        document = Database().load_tree(tree, uri="t.xml")
        # The caller's tree is shredded, not kept: the version holds one
        # text node, as storage does, and so does the tree built for
        # API callers.
        assert len(document.interval) == 3  # document, r, merged text
        (text,) = document.node_for(0).root.children()
        assert isinstance(text, Text) and text.value == "ab"
        assert document.node_for(2) == text
        assert document.tree is not tree
        (built,) = document.tree.root.children()
        assert isinstance(built, Text) and built.value == "ab"

    def test_map_round_trips(self):
        database = Database()
        document = database.load("<a><b/><c k='v'><d/>x</c></a>")
        for preorder in range(len(document.interval)):
            node = document.node_for(preorder)
            assert node == document.node_for(preorder)
            assert hash(node) == hash(document.node_for(preorder))
            assert node.pre == preorder
            parent = document.interval.parent[preorder]
            if parent >= 0:
                assert node.parent == document.node_for(parent)
            else:
                assert node.parent is None

    def test_handles_are_read_only(self):
        document = Database().load("<a><b/>x</a>")
        root = document.node_for(0).root
        with pytest.raises(TypeError):
            root.append(Element("c"))
        with pytest.raises(AttributeError):
            document.node_for(3).value = "y"
        assert document.node_for(3).value == "x"


class TestSharedScan:
    def test_multiple_matchers_one_pass(self):
        from repro.algebra.pattern_graph import compile_path
        from repro.physical.nok import NoKMatcher, run_shared_scan
        from repro.xpath.parser import parse_xpath

        database = Database()
        database.load(
            "<r><a><x>1</x></a><b><x>2</x></b><a><y/></a></r>",
            uri="s.xml")
        runtime = database.document().runtime

        anchored = NoKMatcher(compile_path(parse_xpath("/r/a")),
                              anchored=True)
        floating_pattern = compile_path(parse_xpath("/r/b"))
        # Make the b-partition unanchored at its 'b' vertex like the
        # partitioner would: take the subpattern rooted at b.
        from repro.physical.partition import partition_pattern
        floating = partition_pattern(
            compile_path(parse_xpath("//x")))[1]
        floating.pattern.vertices[floating.pattern.root].output = True
        matcher_b = NoKMatcher(floating.pattern, anchored=False)

        results = run_shared_scan(runtime, [anchored, matcher_b])
        a_output = anchored.pattern.output_vertices()[0].vertex_id
        a_matches = sorted({b[a_output] for b in results[0]
                            if a_output in b})
        x_matches = sorted({node for b in results[1]
                            for node in b.values()})
        assert len(a_matches) == 2
        assert len(x_matches) == 2
        # Both matchers saw exactly one scan's worth of nodes.
        assert anchored.stats.nodes_visited == \
            len(database.document().interval)
        assert matcher_b.stats.nodes_visited == \
            anchored.stats.nodes_visited

    def test_shared_scan_charges_one_structure_read(self):
        from repro.algebra.pattern_graph import compile_path
        from repro.physical.nok import NoKMatcher, run_shared_scan
        from repro.xpath.parser import parse_xpath

        database = Database(pool_pages=4, page_size=256)
        database.load("<r>" + "<a><b/></a>" * 200 + "</r>", uri="x.xml")
        runtime = database.document().runtime
        database.pages.reset()
        matchers = [NoKMatcher(compile_path(parse_xpath("/r/a")))
                    for _ in range(4)]
        run_shared_scan(runtime, matchers)
        one_scan_reads = database.pages.counters.page_reads
        database.pages.reset()
        NoKMatcher(compile_path(parse_xpath("/r/a"))).run(runtime)
        single_reads = database.pages.counters.page_reads
        assert one_scan_reads == single_reads


class TestExecutorPlumbing:
    def test_strategy_propagates_from_nested_tau(self):
        database = Database()
        database.load("<r><a>1</a><a>2</a></r>", uri="r.xml")
        result = database.query(
            'for $a in doc("r.xml")/r/a return $a', strategy="nok")
        assert result.strategy == "nok"

    def test_stats_accumulate_across_taus(self):
        database = Database()
        database.load("<r><a>1</a></r>", uri="r.xml")
        result = database.query(
            'for $a in doc("r.xml")/r/a for $b in doc("r.xml")//a '
            "return 1", strategy="auto")
        assert result.stats["solutions"] >= 2

    def test_gamma_output_through_engine_is_detached_tree(self):
        database = Database()
        database.load("<r><a>x</a></r>", uri="r.xml")
        result = database.query(
            '<out>{ for $a in doc("r.xml")//a return <i>{$a/text()}</i> '
            "}</out>")
        out = result.items[0]
        assert out.tag == "out"
        assert [c.string_value() for c in out.child_elements()] == ["x"]
