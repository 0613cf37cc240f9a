"""E1 — storage succinctness: succinct scheme vs interval shredding vs DOM.

The paper's storage claim: linearising structure as balanced parentheses
with tags, and keeping content separate, is far smaller than per-node
label records.  The bench reports bytes/node for the *structure* part
(what navigation touches) and for the totals, across document scales and
all three workload shapes.
"""

import pytest

from benchmarks.common import (
    dblp_database,
    format_table,
    publish,
    treebank_database,
    xmark_database,
)
from repro.storage.succinct import SuccinctDocument

_DOM_BYTES_PER_NODE = 32  # pointers: parent, first child, sibling, tag


def _row(label, database):
    report = database.storage_report()
    nodes = report["nodes"]
    succinct = report["succinct"]
    interval = report["interval"]
    succinct_structure = (succinct["structure"] + succinct["tags"]
                          + succinct["kinds"] + succinct["symbol_table"])
    return [
        label,
        nodes,
        round(succinct_structure / nodes, 2),
        round(interval["records"] / nodes, 2),
        float(_DOM_BYTES_PER_NODE),
        round(succinct["total"] / nodes, 2),
        round(interval["total"] / nodes, 2),
    ]


def test_e1_storage_report(benchmark):
    rows = []
    for scale in (50, 200, 800):
        rows.append(_row(f"xmark-{scale}", xmark_database(scale)))
    rows.append(_row("dblp-400", dblp_database(400)))
    rows.append(_row("treebank-60", treebank_database(60)))

    table = format_table(
        "E1 — structure bytes/node: succinct vs interval vs DOM",
        ["document", "nodes", "succinct struct", "interval records",
         "DOM est.", "succinct total", "interval total"],
        rows,
        note="Structure = what pattern matching reads (BP bits + tags + "
             "kinds vs 20-byte label records vs pointer DOM).  Totals "
             "include the shared content; the succinct scheme stores it "
             "once, separately (Section 4.2).")
    publish("e1_storage_size", table)

    # The headline claim: succinct structure is a fraction of interval's.
    for row in rows:
        assert row[2] * 2.5 < row[3], row[0]

    database = xmark_database(200)
    tree = database.document().tree
    benchmark(lambda: SuccinctDocument.from_document(tree))


def test_e1_succinct_build_benchmark(benchmark):
    tree = xmark_database(100).document().tree
    store = benchmark(lambda: SuccinctDocument.from_document(tree))
    assert store.node_count > 0


def test_e1_interval_build_benchmark(benchmark):
    from repro.storage.interval import IntervalDocument
    tree = xmark_database(100).document().tree
    store = benchmark(lambda: IntervalDocument.from_document(tree))
    assert len(store) > 0
