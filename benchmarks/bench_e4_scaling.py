"""E4 — document-size scaling: the single scan stays linear.

Fixed query mix, document scale doubling 50 → 400 items.  The shape to
reproduce: NoK time and page reads grow linearly with document size (one
sequential scan); the navigational commercial stand-in grows with the
explored region but pays random reads; join strategies grow with their
posting lists.
"""

import pytest

from benchmarks.common import format_table, publish, timed, xmark_database
from repro.workload import XMARK_QUERY_SET

SCALES = (50, 100, 200, 400)
STRATEGIES = ("nok", "structural-join", "navigational")
QUERY = XMARK_QUERY_SET["q-child"]          # linear NoK path
DESCENDANT_QUERY = XMARK_QUERY_SET["q-descendant"]


def run(database, query, strategy):
    database.pages.reset()
    return database.query(query, strategy=strategy)


def test_e4_report(benchmark):
    rows = []
    for scale in SCALES:
        database = xmark_database(scale)
        nodes = len(database.document().interval)
        for strategy in STRATEGIES:
            result = run(database, QUERY, strategy)
            seconds = timed(lambda d=database, s=strategy:
                            run(d, QUERY, s), repeat=2)
            rows.append([scale, nodes, strategy, len(result),
                         seconds * 1000, result.io["page_reads"]])
    table = format_table(
        f"E4 — scaling {QUERY} across document sizes",
        ["scale", "nodes", "strategy", "results", "time (ms)",
         "page reads"],
        rows,
        note="NoK page reads track the structure size (linear); the "
             "navigational stand-in touches DOM records over the whole "
             "explored region.")
    publish("e4_scaling", table)

    # Shape: NoK stays linear-ish — time at 8x scale is far below 8x^2.
    nok_times = [row[4] for row in rows if row[2] == "nok"]
    assert nok_times[-1] < nok_times[0] * 64
    # NoK reads fewer pages than navigational at the largest scale.
    largest = [row for row in rows if row[0] == SCALES[-1]]
    reads = {row[2]: row[5] for row in largest}
    assert reads["nok"] <= reads["navigational"]

    database = xmark_database(SCALES[-1])
    benchmark(lambda: run(database, QUERY, "nok"))


@pytest.mark.parametrize("scale", SCALES)
def test_e4_nok_scaling_benchmark(benchmark, scale):
    database = xmark_database(scale)
    result = benchmark(lambda: run(database, QUERY, "nok"))
    assert len(result) >= 0


def test_e4_descendant_query_benchmark(benchmark):
    database = xmark_database(200)
    result = benchmark(lambda: run(database, DESCENDANT_QUERY,
                                   "partitioned"))
    assert len(result) > 0
