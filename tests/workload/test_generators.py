"""Tests for the synthetic workload generators and query sets."""

import pytest

from repro.engine.database import Database
from repro.workload import (
    LINEAR_PATHS,
    TWIG_QUERIES,
    XMARK_QUERY_SET,
    generate_dblp,
    generate_treebank,
    generate_xmark,
)
from repro.workload.queries import (
    SELECTIVITY_SWEEP,
    SIBLING_QUERIES,
    descendant_fraction,
    selectivity_query,
)
from repro.xml.serializer import serialize
from repro.xpath.semantics import evaluate_xpath
from tests.engine.alignment import engine_preorders, storage_preorder_map


class TestXMark:
    def test_deterministic(self):
        assert serialize(generate_xmark(scale=15, seed=5)) == \
            serialize(generate_xmark(scale=15, seed=5))

    def test_seed_changes_content(self):
        assert serialize(generate_xmark(scale=15, seed=5)) != \
            serialize(generate_xmark(scale=15, seed=6))

    def test_scale_controls_items(self):
        doc = generate_xmark(scale=30)
        assert len(evaluate_xpath("//item", doc)) == 30

    def test_structure(self):
        doc = generate_xmark(scale=25)
        site = doc.root
        assert site.tag == "site"
        sections = [c.tag for c in site.child_elements()]
        assert sections == ["regions", "categories", "people",
                            "open_auctions", "closed_auctions"]
        assert evaluate_xpath("//person/@id", doc)
        assert evaluate_xpath("//open_auction/bidder", doc) is not None

    def test_item_ids_unique(self):
        doc = generate_xmark(scale=40)
        ids = [a.value for a in evaluate_xpath("//item/@id", doc)]
        assert len(ids) == len(set(ids)) == 40

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            generate_xmark(scale=0)

    def test_grows_with_scale(self):
        small = generate_xmark(scale=10)
        large = generate_xmark(scale=100)
        small.reindex()
        large.reindex()
        assert large.size > 5 * small.size


class TestDBLP:
    def test_flat_and_wide(self):
        doc = generate_dblp(publications=50)
        doc.reindex()
        records = list(doc.root.child_elements())
        assert len(records) == 50
        assert all(r.tag in ("article", "inproceedings") for r in records)
        # Depth stays tiny: root/record/field/text.
        assert max(n.level for n in doc.nodes_in_document_order()) <= 4

    def test_records_have_required_fields(self):
        doc = generate_dblp(publications=30)
        assert len(evaluate_xpath("//title", doc)) == 30
        assert len(evaluate_xpath("//year", doc)) == 30
        assert len(evaluate_xpath("//author", doc)) >= 30

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_dblp(publications=0)


class TestTreebank:
    def test_depth_exceeds_flat_regimes(self):
        doc = generate_treebank(sentences=15, max_depth=14)
        doc.reindex()
        depth = max(n.level for n in doc.nodes_in_document_order())
        assert depth >= 6

    def test_sentences_count(self):
        doc = generate_treebank(sentences=12)
        assert len(list(doc.root.child_elements("S"))) == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_treebank(sentences=0)
        with pytest.raises(ValueError):
            generate_treebank(max_depth=1)


class TestQuerySets:
    @pytest.fixture(scope="class")
    def db(self):
        database = Database()
        database.load_tree(generate_xmark(scale=60), uri="xmark.xml")
        return database

    @pytest.fixture(scope="class")
    def reference(self):
        """Storage pre ids the reference evaluator selects on a second,
        independently generated copy of the document."""
        tree = generate_xmark(scale=60)
        mapping = storage_preorder_map(tree)
        return lambda query: [mapping[node.node_id]
                              for node in evaluate_xpath(query, tree)]

    def test_linear_paths_return_results(self, db):
        for length, query in LINEAR_PATHS.items():
            assert len(db.query(query)) > 0, query

    def test_twig_queries_return_results(self, db):
        for name, query in TWIG_QUERIES.items():
            assert len(db.query(query)) > 0, name

    def test_xmark_query_set(self, db, reference):
        for name, query in XMARK_QUERY_SET.items():
            assert engine_preorders(db, query) == reference(query), \
                name

    def test_sibling_queries(self, db, reference):
        for name, query in SIBLING_QUERIES.items():
            assert engine_preorders(db, query) == reference(query), \
                name

    def test_selectivity_query_builds(self, db):
        name = db.query("//item/name").values()[0]
        query = selectivity_query(name)
        assert len(db.query(query)) == 1

    def test_selectivity_sweep_declared(self):
        labels = [label for label, _, _ in SELECTIVITY_SWEEP]
        assert "name-exact" in labels and "payment-cash" in labels

    def test_descendant_fraction(self):
        assert descendant_fraction(4, 0) == "/site/regions/europe/item"
        assert descendant_fraction(4, 4) == "//site//regions//europe//item"
        assert descendant_fraction(4, 1) == "/site/regions/europe//item"
