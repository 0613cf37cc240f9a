"""Randomized end-to-end differential testing through the Database.

Random documents × random query shapes, executed through the full engine
pipeline (parse → translate → backward analysis → rewrite → physical
lowering) under every strategy, must match the reference interpreter
run over an independent parse of the same text (nodes compared by
storage pre id).  This is the highest-level safety net in the suite.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.database import Database
from tests.engine.alignment import ShadowDocument, engine_keys

_TAGS = ["a", "b", "c"]


@st.composite
def documents(draw):
    def subtree(depth):
        tag = draw(st.sampled_from(_TAGS))
        attr = f' k="{draw(st.integers(0, 2))}"' if draw(st.booleans()) \
            else ""
        if depth == 0 or draw(st.integers(0, 3)) == 0:
            return f"<{tag}{attr}>{draw(st.integers(0, 9))}</{tag}>"
        inner = "".join(subtree(depth - 1)
                        for _ in range(draw(st.integers(1, 3))))
        return f"<{tag}{attr}>{inner}</{tag}>"
    return f"<root>{''.join(subtree(2) for _ in range(3))}</root>"


_XPATH_QUERIES = [
    "/root/a", "//a", "//a/b", "//a//c", "//a[b]", "//a[@k]",
    "//a[@k = '1']", "//*[b]/c", "//b[. = 3]", "//a[b][c]",
    "//a/b/following-sibling::c",
]

_XQUERY_QUERIES = [
    'for $x in doc("d.xml")//a return $x/b',
    'for $x in doc("d.xml")//a where $x/@k = "1" return $x',
    'for $x in doc("d.xml")//a let $c := $x/c return count($c)',
    'count(doc("d.xml")//b)',
    '<o>{ for $x in doc("d.xml")//a let $dead := $x/b '
    'return <i>{count($x/c)}</i> }</o>',
]


@given(documents(), st.sampled_from(_XPATH_QUERIES),
       st.sampled_from(["nok", "partitioned", "columnar", "index-scan",
                        "structural-join", "pathstack", "twigstack",
                        "navigational", "auto"]))
@settings(max_examples=60, deadline=None)
def test_xpath_differential(text, query, strategy):
    database = Database()
    database.load(text, uri="d.xml")
    expected = ShadowDocument(text, uri="d.xml").keys(query)
    result = database.query(query, strategy=strategy)
    assert engine_keys(database, result) == expected


@given(documents(), st.sampled_from(_XQUERY_QUERIES))
@settings(max_examples=40, deadline=None)
def test_xquery_differential(text, query):
    database = Database()
    database.load(text, uri="d.xml")
    expected = ShadowDocument(text, uri="d.xml").keys(query)
    result = database.query(query)
    assert engine_keys(database, result) == expected
