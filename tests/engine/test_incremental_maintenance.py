"""Incremental derived-structure maintenance: deltas must equal a fresh
rebuild after every update (the ``debug_checks`` cross-check does the
comparison inside the engine and raises on divergence)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.database import Database
from tests.engine.alignment import ShadowDocument

SHOP = ('<shop>'
        '<item sku="s0"><name>n0</name><price>10</price></item>'
        '<item sku="s1"><name>n1</name><price>20</price></item>'
        '<box><item sku="s2"><name>n2</name><price>5</price></item></box>'
        '</shop>')


@pytest.fixture
def db():
    database = Database(debug_checks=True)
    database.load(SHOP, uri="shop.xml")
    return database


class TestIncrementalPath:
    def test_updates_do_not_full_rebuild(self, monkeypatch):
        database = Database()
        database.load(SHOP, uri="shop.xml")

        def boom(document):  # pragma: no cover - fails the test if hit
            raise AssertionError("happy path must not rebuild derived "
                                 "structures")

        monkeypatch.setattr(database, "_rebuild_derived", boom)
        database.insert("/shop", '<item sku="x"><name>nx</name>'
                                 '<price>1</price></item>')
        database.delete("/shop/item[1]")
        assert database.query("//item/name").values() == ["n1", "n2", "nx"]

    def test_insert_cross_checked(self, db):
        db.insert("/shop", '<item sku="x"><name>nx</name>'
                           '<price>42</price></item>', position=0)
        assert db.query("//item[price = 42]/name").values() == ["nx"]

    def test_delete_cross_checked(self, db):
        db.delete("/shop/box")
        assert db.query("//item").values() and \
            len(db.query("//item")) == 2

    def test_nested_insert_and_delete_cross_checked(self, db):
        db.insert("/shop/box/item", "<note>deep</note>")
        db.delete("/shop/item[1]")
        assert db.query("//item[note]/name").values() == ["n2"]

    def test_delete_between_text_siblings_cross_checked(self):
        # Storage keeps the two texts apart once <x/> is gone; so must
        # the successor's document node.
        database = Database(debug_checks=True)
        database.load("<r>a<x/>b</r>", uri="t.xml")
        database.delete("/r/x")
        document = database.document()
        assert document.interval.tags == ["#document", "r", "#text",
                                          "#text"]
        assert document.tree == document.node_for(0)
        assert [node.string_value() for node
                in document.tree.root.children()] == ["a", "b"]
        assert database.query("/r/text()").values() == ["a", "b"]
        assert database.query("string(/r)").values() == ["ab"]

    @pytest.mark.parametrize("drift", ["reorder", "extra", "value"])
    def test_verify_checks_model_nodes_against_columns(self, db, drift):
        # The document node reads the columns in place, so a drift of
        # its nodes away from them cannot be made: each edit raises,
        # and the version still equals a fresh rebuild.
        from repro.xml.model import Text
        from repro.xml.serializer import serialize

        document = db.document()
        before = serialize(document.tree)
        shop = document.tree.root
        if drift == "reorder":
            with pytest.raises(TypeError):
                shop.append(shop.remove(shop[0]))
        elif drift == "extra":
            with pytest.raises(TypeError):
                shop.append(Text("stray"))
        else:
            with pytest.raises(AttributeError):
                shop[0].find("name")[0].value = "changed"   # the n0 text
        db.verify_derived(document)
        assert serialize(document.tree) == before

    def test_generation_counts_updates(self, db):
        document = db.document()
        assert document.generation == 0
        db.insert("/shop", "<extra/>")
        db.delete("/shop/extra")
        # MVCC: updates publish successor versions; the pinned one is
        # frozen at its generation and the current one counts both.
        assert document.generation == 0
        assert db.document().generation == 2
        assert db.document() is not document

    def test_rebuild_escape_hatch_matches_incremental(self, db):
        db.insert("/shop", '<item sku="y"><name>ny</name>'
                           '<price>7</price></item>')
        before = db.query("//item/name").values()
        db.rebuild_derived()
        db.verify_derived(db.document())
        assert db.query("//item/name").values() == before

    def test_index_scan_after_interleaved_updates(self, db):
        db.insert("/shop", '<item sku="z"><name>anvil</name>'
                           '<price>99</price></item>')
        db.delete("/shop/item[1]")
        result = db.query("//item[name = 'anvil']", strategy="index-scan")
        assert result.values() == ["anvil99"]
        ranged = db.query("//item[price > 50]", strategy="index-scan")
        assert ranged.values() == ["anvil99"]

    def test_value_index_compaction_keeps_answers(self):
        database = Database(debug_checks=True)
        items = "".join(f'<item sku="s{i}"><name>n{i}</name>'
                        f"<price>{i}</price></item>" for i in range(60))
        database.load(f"<shop>{items}</shop>", uri="shop.xml")
        rng = random.Random(1)
        for _ in range(40):
            count = len(database.query("/shop/item"))
            database.delete(f"/shop/item[{rng.randint(1, count)}]")
        survivors = database.query("//item/name").values()
        probe = survivors[0]
        result = database.query(f"//item[name = '{probe}']",
                                strategy="index-scan")
        assert result.values()[0].startswith(probe)


@st.composite
def update_scripts(draw):
    script = []
    for step in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["insert", "insert_nested", "delete"]))
        if kind == "insert":
            script.append(("insert", "/shop",
                           f'<item sku="h{step}"><name>h{step}</name>'
                           f"<price>{draw(st.integers(1, 99))}</price>"
                           f"</item>", draw(st.integers(0, 3))))
        elif kind == "insert_nested":
            script.append(("insert", "/shop/box",
                           f"<gift><name>g{step}</name></gift>", 0))
        else:
            script.append(("delete", draw(st.integers(1, 4)), None, None))
    return script


@given(update_scripts())
@settings(max_examples=25, deadline=None)
def test_random_scripts_survive_debug_cross_check(script):
    database = Database(debug_checks=True)
    database.load(SHOP, uri="shop.xml")
    oracle = ShadowDocument(SHOP, uri="shop.xml")
    for action in script:
        if action[0] == "insert":
            _, path, fragment, position = action
            if not database.query(path).items:
                continue
            count = len(database.query(path + "/*"))
            database.insert(path, fragment,
                            position=min(position, count))
            oracle.insert(path, fragment, min(position, count))
        else:
            _, index, _, _ = action
            count = len(database.query("/shop/item"))
            if count == 0:
                continue
            database.delete(f"/shop/item[{min(index, count)}]")
            oracle.delete(f"/shop/item[{min(index, count)}]")
    for query in ("//item", "//item/name", "//name", "count(//item)",
                  "//item[price > 15]/name"):
        reference = oracle.values(query)
        for strategy in ("auto", "nok", "structural-join"):
            assert database.query(query, strategy=strategy).values() \
                == reference, (query, strategy)
