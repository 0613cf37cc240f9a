"""Retired versions are freed by reference counting, not by the
cycle collector.

A version holds label columns, a content heap and derived indexes, and
its query results are handles that point at it; nothing in a version
points back at itself.  So when a publish retires a version and its
last reader lets go, every object it owned is freed at once — none is
left for a full (generation-2) collection, whose pauses would otherwise
land on whichever later operation triggers one.
"""

from __future__ import annotations

import gc
import weakref

from repro.engine.database import Database
from repro.workload import generate_xmark
from repro.xml.serializer import serialize

UPDATES = 16
QUERIES = ("//item/name", "//item[payment = 'Cash']/name",
           "/site/regions/*/item[1]/name", "//person[profile/@income]/name")


def test_retired_versions_leave_no_cyclic_garbage():
    database = Database()
    database.load(serialize(generate_xmark(scale=20, seed=3)), uri="x.xml")
    nodes = len(database.document().interval)
    pinned = []
    gc.collect()
    gc.disable()
    try:
        for step in range(UPDATES):
            # Readers pin the snapshot, fill the result cache and the
            # strategy memo, and run residual checks on this version.
            pinned.append(database._snapshot)
            for query in QUERIES:
                assert database.query(query).items
            if step % 2 == 0:
                database.insert("/site/regions/europe",
                                f"<item><name>n{step}</name></item>")
            else:
                database.delete("/site/regions/europe/item[last()]")
        pinned.clear()
        garbage = gc.collect()
    finally:
        gc.enable()
    # Fewer than 0.1 cyclic objects per node per retired version; model
    # trees of retired versions left ~2.4 per node.
    assert garbage < 0.1 * nodes * UPDATES, (garbage, nodes)


def test_publish_drops_cached_results_of_retired_versions():
    database = Database()
    database.load("<r><a>1</a></r>", uri="r.xml")
    assert database.query("//a").values() == ["1"]   # cached handles
    retired = weakref.ref(database.document())
    database.insert("/r", "<a>2</a>")
    assert len(database.result_cache) == 0
    assert retired() is None
    assert database.query("//a").values() == ["1", "2"]
