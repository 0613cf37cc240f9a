"""Property test: random update sequences keep every structure aligned.

Random interleavings of inserts and deletes through the Database must
leave the engine agreeing with the reference evaluator on a probe query
set, and both stores' invariants intact — the strongest guarantee the
update path offers.  The reference is a :class:`ShadowDocument`: the
base text parsed on its own with every update applied as a plain model
edit, so it shares nothing with the columns the engine splices or the
tree it builds from them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.database import Database
from repro.storage.succinct import SuccinctDocument
from repro.xml.serializer import serialize
from tests.engine.alignment import ShadowDocument

BASE = ('<shop>'
        '<item sku="s0"><name>n0</name><price>10</price></item>'
        '<item sku="s1"><name>n1</name><price>20</price></item>'
        '</shop>')

PROBES = [
    "//item", "//item/name", "//item[price > 15]", "//@sku",
    "count(//item)", "//item[name = 'n1']",
]


@st.composite
def update_scripts(draw):
    """A short sequence of (op, payload) update actions."""
    script = []
    for step in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            sku = f"x{step}"
            price = draw(st.integers(1, 99))
            script.append(("insert",
                           f'<item sku="{sku}"><name>new{step}</name>'
                           f"<price>{price}</price></item>",
                           draw(st.integers(0, 2))))
        else:
            script.append(("delete", draw(st.integers(1, 3)), None))
    return script


@given(update_scripts())
@settings(max_examples=30, deadline=None)
def test_updates_keep_engine_and_reference_aligned(script):
    database = Database()
    database.load(BASE, uri="shop.xml")
    oracle = ShadowDocument(BASE, uri="shop.xml")
    for action in script:
        count = len(oracle.query("/shop/item"))
        assert len(database.query("/shop/item")) == count
        if action[0] == "insert":
            _, fragment, position = action
            database.insert("/shop", fragment,
                            position=min(position, count))
            oracle.insert("/shop", fragment, min(position, count))
        else:
            _, index, _ = action
            if count == 0:
                continue
            database.delete(f"/shop/item[{min(index, count)}]")
            oracle.delete(f"/shop/item[{min(index, count)}]")

    # Engine vs the independent reference on every probe, via three
    # different strategies.
    for query in PROBES:
        expected = oracle.values(query)
        for strategy in ("nok", "structural-join", "navigational"):
            result = database.query(query, strategy=strategy)
            assert result.values() == expected, (query, strategy)

    # Store invariants.
    interval = database.document().interval
    posts = sorted(record.post for record in interval.nodes)
    assert posts == list(range(len(interval.nodes)))
    for index, record in enumerate(interval.nodes):
        assert record.pre == index
        assert record.pre <= record.end < len(interval.nodes)
    # The document read through the version's handles serializes as
    # the reference tree, and the succinct encoding built from the
    # updated columns equals the one built from the reference tree.
    version = database.document()
    assert serialize(version.node_for(0)) == serialize(oracle.tree)
    built = SuccinctDocument.from_columns(version.interval, version.content)
    fresh = SuccinctDocument.from_document(oracle.tree)
    mine, theirs = built.to_snapshot(), fresh.to_snapshot()
    assert mine["bp"] == theirs["bp"]
    assert ([mine["symbols"][s] for s in mine["tags"]]
            == [theirs["symbols"][s] for s in theirs["tags"]])
    assert mine["kinds"] == theirs["kinds"]
    assert ([built.text_of(pre) for pre in range(built.node_count)]
            == [fresh.text_of(pre) for pre in range(fresh.node_count)])
