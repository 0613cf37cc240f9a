"""The snapshot's succinct section restores straight into label columns.

Writing encodes the version's columns in the paper's storage format;
restoring decodes that section back into tag/kind/value columns and
checks its BP bits against the restored ``level`` column instead of
navigating them.  A section that disagrees is corrupt (so recovery can
fall back to an older generation), and content tombstones survive the
round trip with their content ids.
"""

from __future__ import annotations

import io

import pytest

from repro import Database
from repro.durability.snapshot import read_snapshot, write_snapshot
from repro.errors import SnapshotCorruptError
from repro.storage.bitvector import BitVector
from repro.storage.succinct import SuccinctDocument, bp_bits

DOC = ('<shop><item sku="a"><name>anvil</name><price>10</price></item>'
       '<item sku="b"><name>rope</name><price>25</price></item>'
       '<!-- stock --><?audit weekly?>'
       '<item sku="c"><name>glue</name><price>4</price></item></shop>')


def _snapshot(database: Database) -> dict:
    out = io.BytesIO()
    write_snapshot(out, database)
    return read_snapshot(out.getvalue())


def _tamper(section: dict, case: str) -> None:
    nodes = section["bp"]["length"] // 2
    if case == "balanced":
        # A flat tree with the same node count: balanced, wrong shape.
        section["bp"] = bp_bits([0] + [1] * (nodes - 1)).to_snapshot()
    elif case == "unbalanced":
        section["bp"] = BitVector.from_bits([1] * 2 * nodes).to_snapshot()
    else:
        section["kinds"] = section["kinds"][:-1]


@pytest.mark.parametrize("case", ["balanced", "unbalanced", "node-count"])
def test_succinct_section_disagreeing_with_level_is_corrupt(case):
    source = Database()
    source.load(DOC, uri="shop.xml")
    state = _snapshot(source)
    _tamper(state["documents"][0]["succinct"], case)
    target = Database()
    with pytest.raises(SnapshotCorruptError):
        target.install_snapshot_state(state)
    assert target.documents == {}


def test_snapshot_round_trips_tombstoned_content():
    source = Database()
    source.load(DOC, uri="shop.xml")
    source.delete("/shop/item[2]")
    source.insert("/shop", '<item sku="d"><name>tape</name></item>',
                  position=0)
    before = source.document()
    assert before.content.dead_entries > 0

    target = Database()
    target.install_snapshot_state(_snapshot(source))
    after = target.document()
    assert after.content.to_snapshot() == before.content.to_snapshot()
    assert after.content.dead_entries == before.content.dead_entries
    assert after.interval.to_snapshot() == before.interval.to_snapshot()
    assert after.interval.tags == before.interval.tags
    assert after.interval.kinds == before.interval.kinds
    assert after.interval.values == before.interval.values
    assert (SuccinctDocument.from_columns(after.interval,
                                          after.content).to_snapshot()
            == SuccinctDocument.from_columns(before.interval,
                                             before.content).to_snapshot())
    for query in ("//item/name", "//item[name = 'rope']", "//@sku",
                  "//item[price > 5]/name"):
        assert target.query(query).values() == \
            source.query(query).values()
    assert target.query("//item[name = 'rope']",
                        strategy="index-scan").values() == []
