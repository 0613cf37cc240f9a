"""A version holds the pre-order structure once: as label columns.

Loading, querying (every strategy, baselines included) and updating
never build the succinct encoding's ``BitVector``/``BalancedParens``;
the encoding is only built on demand (checkpoints, the storage report).
The NoK structure segment is still sized as that encoding would be:
its length equals the structure + tag + kind bytes of a succinct store
built from an independently parsed and updated reference tree, through
loads and updates that grow and shrink the tag alphabet.
"""

from collections import Counter

import pytest

from repro.engine.database import Database
from repro.physical.planner import STRATEGIES
from repro.storage.balanced_parens import BalancedParens
from repro.storage.bitvector import BitVector
from repro.storage.succinct import SuccinctDocument
from repro.workload import generate_xmark
from repro.xml.serializer import serialize
from tests.engine.alignment import ShadowDocument

QUERIES = [
    "/site/regions/*/item/name",
    "//item[@id]/name",
    "//person[name]/emailaddress",
    "//item[payment = 'Creditcard']/location",
    "//@id",
]


@pytest.fixture
def constructions(monkeypatch) -> Counter:
    """Counts ``BitVector`` and ``BalancedParens`` constructions."""
    counts: Counter = Counter()
    for cls in (BitVector, BalancedParens):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__,
                     **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def test_no_bp_built_by_load_queries_or_updates(constructions):
    database = Database(result_cache_size=0)
    text = serialize(generate_xmark(scale=10, seed=11))
    database.load(text, uri="x.xml")
    oracle = ShadowDocument(text, uri="x.xml")
    for query in QUERIES:
        expected = oracle.values(query)
        for strategy in STRATEGIES:
            result = database.query(query, strategy=strategy)
            assert result.values() == expected, (query, strategy)
    database.insert("/site/regions/asia",
                    '<item id="new"><name>n</name></item>')
    database.delete("/site/regions/europe/item[1]")
    assert database.query("//item[@id = 'new']/name").values() == ["n"]
    assert constructions == Counter()

    # The counter is live: building the encoding on demand counts.
    version = database.document()
    SuccinctDocument.from_columns(version.interval, version.content)
    assert constructions["BalancedParens"] == 1


def _structure_extent(database: Database, uri: str) -> int:
    return database.pages.segment(f"succinct:structure:{uri}").length


def _encoded_extent(oracle: ShadowDocument) -> int:
    sizes = SuccinctDocument.from_document(oracle.tree).size_bytes()
    return sizes["structure"] + sizes["tags"] + sizes["kinds"]


def test_structure_segment_tracks_the_reference_encoding():
    """Nine distinct tags need 4-bit tag codes, eight need 3: the
    deletions below shrink the alphabet across that boundary."""
    text = "<r><a/><b/><c/><d>t</d><e/><f/></r>"
    database = Database()
    database.load(text, uri="s.xml")
    oracle = ShadowDocument(text, uri="s.xml")
    assert _structure_extent(database, "s.xml") == _encoded_extent(oracle)
    database.insert("/r", "<g><h/></g>")
    oracle.insert("/r", "<g><h/></g>")
    assert _structure_extent(database, "s.xml") == _encoded_extent(oracle)
    for victim in ("/r/g", "/r/f"):
        database.delete(victim)
        oracle.delete(victim)
    assert len(database.document().tag_index.tags()) == 8
    assert _structure_extent(database, "s.xml") == _encoded_extent(oracle)


def test_inserted_comments_and_pis_stay_aligned():
    """A fragment's comments and processing instructions are nodes of
    the label columns, the content heap and the model tree alike."""
    text = "<r><a><b>x</b></a><c/></r>"
    fragment = ('<item id="i"><!-- note --><name>n</name>'
                "<?audit weekly?></item>")
    database = Database(debug_checks=True)
    database.load(text, uri="t.xml")
    database.insert("/r", fragment, position=0)
    oracle = ShadowDocument(text, uri="t.xml")
    oracle.insert("/r", fragment, 0)
    for query in ("//c", "//name", "//item/@id", "//b", "//a/b"):
        expected = oracle.values(query)
        for strategy in STRATEGIES:
            assert database.query(query, strategy=strategy).values() == \
                expected, (query, strategy)
    version = database.document()
    built = SuccinctDocument.from_columns(version.interval, version.content)
    fresh = SuccinctDocument.from_document(oracle.tree)
    assert built.to_snapshot()["bp"] == fresh.to_snapshot()["bp"]
    assert ([built.text_of(pre) for pre in range(built.node_count)]
            == [fresh.text_of(pre) for pre in range(fresh.node_count)])
