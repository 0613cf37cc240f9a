"""Tests for engine-level updates: every structure stays aligned."""

import pytest

from repro.engine.database import Database
from repro.errors import ExecutionError
from tests.engine.alignment import ShadowDocument, engine_preorders

SHOP = """
<shop>
  <item sku="a1"><name>anvil</name><price>9</price></item>
  <item sku="a2"><name>rope</name><price>10</price></item>
</shop>
"""


@pytest.fixture
def db():
    database = Database()
    database.load(SHOP, uri="shop.xml")
    return database


NEW_ITEM = ('<item sku="a9"><name>piano</name><price>500</price></item>')


class TestInsert:
    def test_insert_visible_to_all_strategies(self, db):
        db.insert("/shop", NEW_ITEM)
        for strategy in ("nok", "structural-join", "twigstack",
                         "navigational"):
            result = db.query("//item/name", strategy=strategy)
            assert "piano" in result.values(), strategy

    def test_insert_position(self, db):
        db.insert("/shop", NEW_ITEM, position=0)
        names = db.query("//item/name").values()
        assert names[0] == "piano"

    def test_value_index_sees_new_content(self, db):
        db.insert("/shop", NEW_ITEM)
        result = db.query("//item[name = 'piano']", strategy="index-scan")
        assert len(result) == 1

    def test_value_index_still_finds_old_content(self, db):
        # Insertion at the front shifts every pre-order id; the rebuilt
        # index must still resolve the old values to the right nodes.
        db.insert("/shop", NEW_ITEM, position=0)
        result = db.query("//item[name = 'rope']", strategy="index-scan")
        assert len(result) == 1
        assert result.values()[0] == "rope10"

    def test_numeric_index_updated(self, db):
        db.insert("/shop", NEW_ITEM)
        result = db.query("//item[price > 100]", strategy="index-scan")
        assert len(result) == 1

    def test_statistics_updated(self, db):
        before = db.document().statistics.count("item")
        db.insert("/shop", NEW_ITEM)
        assert db.document().statistics.count("item") == before + 1

    def test_metrics_returned(self, db):
        metrics = db.insert("/shop", NEW_ITEM)
        assert metrics["inserted_nodes"] == 6
        assert "relabelled" in metrics

    def test_reference_and_engine_agree_after_insert(self, db):
        db.insert("/shop", NEW_ITEM, position=1)
        oracle = ShadowDocument(SHOP, uri="shop.xml")
        oracle.insert("/shop", NEW_ITEM, 1)
        for query in ("//item", "//name", "/shop/item[2]/name",
                      "//item[price = 10]"):
            assert engine_preorders(db, query) == oracle.preorders(query), \
                query

    def test_multiple_inserts(self, db):
        for index in range(3):
            db.insert("/shop", f"<item sku='n{index}'>"
                               f"<name>thing{index}</name></item>")
        assert len(db.query("//item")) == 5

    def test_nested_insert_target(self, db):
        db.insert("/shop/item[1]", "<note>fragile</note>")
        result = db.query("//item[note]/name")
        assert result.values() == ["anvil"]


class TestInsertErrors:
    def test_ambiguous_target_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.insert("//item", NEW_ITEM)

    def test_missing_target_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.insert("/shop/ghost", NEW_ITEM)

    def test_bad_fragment_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.insert("/shop", "just text")
        with pytest.raises(ExecutionError):
            db.insert("/shop", "<a/><b/>")

    def test_bad_position_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.insert("/shop", NEW_ITEM, position=99)


class TestDelete:
    def test_delete_visible_to_all_strategies(self, db):
        db.delete("/shop/item[1]")
        for strategy in ("nok", "structural-join", "navigational"):
            names = db.query("//item/name", strategy=strategy).values()
            assert names == ["rope"], strategy

    def test_delete_then_insert(self, db):
        db.delete("/shop/item[2]")
        db.insert("/shop", NEW_ITEM)
        assert db.query("//item/name").values() == ["anvil", "piano"]

    def test_value_index_after_delete(self, db):
        db.delete("/shop/item[1]")
        assert db.query("//item[name = 'anvil']",
                        strategy="index-scan").items == []
        assert len(db.query("//item[name = 'rope']",
                            strategy="index-scan")) == 1

    def test_metrics(self, db):
        metrics = db.delete("/shop/item[1]")
        assert metrics["removed_nodes"] == 6
        assert "relabelled" in metrics

    def test_reference_agrees_after_delete(self, db):
        db.delete("/shop/item[2]")
        oracle = ShadowDocument(SHOP, uri="shop.xml")
        oracle.delete("/shop/item[2]")
        for query in ("//item", "//name", "count(//item)"):
            assert db.query(query).values() == oracle.values(query), query

    def test_store_invariants_after_delete(self, db):
        db.delete("/shop/item[1]")
        interval = db.document().interval
        posts = sorted(r.post for r in interval.nodes)
        assert posts == list(range(len(interval.nodes)))
        for index, record in enumerate(interval.nodes):
            assert record.pre == index
            if record.parent >= 0:
                assert interval.node(record.parent).contains(record)

    def test_cannot_delete_ambiguous(self, db):
        import pytest as _pytest
        with _pytest.raises(ExecutionError):
            db.delete("//item")

    def test_cannot_delete_missing(self, db):
        import pytest as _pytest
        with _pytest.raises(ExecutionError):
            db.delete("//ghost")
