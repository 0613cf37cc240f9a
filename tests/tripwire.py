"""A tripwire on building a document version's model tree.

Query results are node handles on a version's label columns, and no
engine path — query, update, replay, replica apply, serving — builds a
:mod:`repro.xml.model` tree.  :func:`forbid_tree_building` makes
:func:`repro.storage.interval.materialise`, the one builder of such a
tree, raise for the duration of a test.  Two callers are exempt:
:meth:`Database.reference_query`, the reference evaluator, which runs
over ``version.tree`` by design, and tests marked ``tree_api``, which
read ``version.tree`` themselves.

The engine, durability, replication and server suites turn it on with
an autouse import in their ``conftest.py``.
"""

from __future__ import annotations

import threading

import pytest

from repro.engine.database import Database
from repro.storage import interval


@pytest.fixture(autouse=True)
def forbid_tree_building(request, monkeypatch):
    if request.node.get_closest_marker("tree_api") is not None:
        yield
        return
    materialise = interval.materialise
    reference_query = Database.reference_query
    exempt = threading.local()

    def guarded_materialise(*args, **kwargs):
        if getattr(exempt, "depth", 0):
            return materialise(*args, **kwargs)
        raise AssertionError(
            "an engine path built a model tree from the label columns")

    def exempt_reference_query(self, *args, **kwargs):
        exempt.depth = getattr(exempt, "depth", 0) + 1
        try:
            return reference_query(self, *args, **kwargs)
        finally:
            exempt.depth -= 1

    monkeypatch.setattr(interval, "materialise", guarded_materialise)
    monkeypatch.setattr(Database, "reference_query", exempt_reference_query)
    yield
