"""E6 — FLWOR evaluation strategies (the Section-3.2 motivation).

The paper motivates NestedList/τ with the Fig. 1 comprehension: pipelined
nested-loop evaluation re-traverses per binding, join-based decomposition
needs extra structural joins, while a single τ produces the whole
comprehension in one pass.  The bench evaluates Fig.-1-style FLWORs of
growing nesting depth three ways:

* ``interpreter`` — the reference interpreter (pipelined navigation),
* ``logical-tpm``  — translated plan, logical τ navigating the
  document's root handle (``version.tree``),
* ``engine-nok``   — translated plan, physical τ (the NoK scan) over the
  label columns.
"""

import pytest

from benchmarks.common import dblp_database, format_table, publish, timed
from repro.algebra.plan import ExecutionContext, execute_plan
from repro.algebra.rewrite import rewrite_plan
from repro.algebra.translate import translate
from repro.xquery.parser import parse_xquery

FLWORS = {
    1: ('for $a in doc("dblp.xml")/dblp/article '
        "return $a/title"),
    2: ('for $a in doc("dblp.xml")/dblp/article '
        "for $u in $a/author "
        "return concat($u, ': ')"),
    3: ('for $a in doc("dblp.xml")/dblp/article '
        "for $u in $a/author "
        "for $y in $a/year "
        "return concat($u, '@', $y)"),
}

PUBLICATIONS = 400


def interpreter_run(database, query):
    return database.reference_query(query)


def logical_run(database, query):
    plan = rewrite_plan(translate(parse_xquery(query)))
    trees = {uri: doc.tree for uri, doc in database.documents.items()}
    context = ExecutionContext(trees)
    return execute_plan(plan, context)


def engine_run(database, query):
    return database.query(query, strategy="nok").items


def test_e6_report(benchmark):
    database = dblp_database(PUBLICATIONS)
    rows = []
    runners = {
        "interpreter": interpreter_run,
        "logical-tpm": logical_run,
        "engine-nok": engine_run,
    }
    sizes = {}
    for depth, query in FLWORS.items():
        for name, runner in runners.items():
            count = len(runner(database, query))
            sizes.setdefault(depth, set()).add(count)
            seconds = timed(lambda r=runner, q=query:
                            r(database, q), repeat=2)
            rows.append([depth, name, count, seconds * 1000])
    table = format_table(
        f"E6 — FLWOR strategies over dblp-{PUBLICATIONS}",
        ["nesting", "strategy", "results", "time (ms)"],
        rows,
        note="All three agree on every result set; the tau-based plans "
             "evaluate the outer comprehension in one pattern pass "
             "instead of per-binding navigation.")
    publish("e6_flwor_strategies", table)
    for depth, counts in sizes.items():
        assert len(counts) == 1, f"strategies disagree at depth {depth}"

    benchmark(lambda: engine_run(database, FLWORS[2]))


@pytest.mark.parametrize("name", ["interpreter", "logical-tpm",
                                  "engine-nok"])
def test_e6_depth2_benchmark(benchmark, name):
    database = dblp_database(PUBLICATIONS)
    runner = {"interpreter": interpreter_run, "logical-tpm": logical_run,
              "engine-nok": engine_run}[name]
    result = benchmark(lambda: runner(database, FLWORS[2]))
    assert len(result) > 0
