"""repro — a reproduction of *XML Query Processing and Optimization*
(Ning Zhang, EDBT 2004 PhD Workshop).

The library implements the paper's full system, from scratch:

* an XML substrate (parser, tree model, serializer),
* the **logical algebra** of Section 3 — sorts (``NestedList``,
  ``PatternGraph``, ``SchemaTree``, ``Env``), the Table-1 operators
  (sigma_s, join_s, pi_s, sigma_v, join_v, **tau**, **gamma**),
  XQuery-to-algebra translation, rewrite rules, and a cost model,
* the physical storage of Section 4: one pre-order linearisation per
  document as label columns, a separated content store, and the
  **succinct** balanced-parentheses + tags encoding as the storage format,
* the **NoK single-scan pattern matcher** with its partitioner, a
  columnar semi-join path and an index-scan path, plus the join-based
  baselines of the literature (stack-tree joins, PathStack, TwigStack)
  and a navigational evaluator in :mod:`repro.baselines`,
* a query engine tying it together behind one facade.

Quick start::

    from repro import Database

    db = Database()
    db.load(open("bib.xml").read(), uri="bib.xml")
    for title in db.query("//book[price > 50]/title"):
        print(title.string_value())

    report = db.query("//book/title", strategy="nok")
    print(report.strategy, report.stats, report.io)
"""

from repro.engine.cache import PreparedQuery
from repro.engine.database import Database, QueryResult
from repro.errors import (
    ExecutionError,
    PlanError,
    QuerySyntaxError,
    QueryTypeError,
    ReproError,
    StorageError,
    TranslationError,
    XMLSyntaxError,
)
from repro.xml.parser import parse, parse_file
from repro.xml.serializer import serialize
from repro.xpath import evaluate_xpath, parse_xpath
from repro.xquery import evaluate_xquery, parse_xquery

__version__ = "1.0.0"

__all__ = [
    "Database",
    "ExecutionError",
    "PlanError",
    "PreparedQuery",
    "QueryResult",
    "QuerySyntaxError",
    "QueryTypeError",
    "ReproError",
    "StorageError",
    "TranslationError",
    "XMLSyntaxError",
    "__version__",
    "evaluate_xpath",
    "evaluate_xquery",
    "parse",
    "parse_file",
    "parse_xpath",
    "parse_xquery",
    "serialize",
]
