"""Crash-injection property test: recovery at *every* WAL offset.

For each randomized schedule we

1. run a **twin** in-memory database through the ops, capturing the
   observable state (serialized tree + probe query answers) after every
   prefix;
2. run a durable database through the same ops (one checkpoint at
   load, every op WAL-logged), then enumerate every crash point of the
   op WAL: each record boundary *and* torn offsets inside each record;
3. for each crash point, write out the directory a crash at that
   byte would leave (snapshot files intact, WAL truncated), reopen it
   with ``debug_checks=True`` (recovery replay is cross-checked against
   full rebuilds), and assert the recovered state equals the twin's
   state at the corresponding prefix — a torn record must roll back to
   the previous boundary, never surface partially.

The schedule count satisfies the acceptance bar (>= 200) and can be
raised via the ``DURABILITY_SCHEDULES`` environment variable.
"""

from __future__ import annotations

import os
import random
import shutil
from pathlib import Path

import pytest

from repro import Database
from repro.xml import model
from repro.xml.serializer import serialize
from repro.durability.wal import WAL_MAGIC, read_records

SCHEDULES = int(os.environ.get("DURABILITY_SCHEDULES", "200"))
OPS_PER_SCHEDULE = 3
URI = "doc.xml"

_VALUES = ["alpha", "beta", "7", "3.5", "omega", "42"]


# -- schedule generation ---------------------------------------------------------


def _elements(node, out):
    for child in node.children():
        if isinstance(child, model.Element):
            out.append(child)
            _elements(child, out)
    return out


def _make_document(rng: random.Random, counter: list[int]) -> str:
    parts = []
    for _ in range(rng.randint(2, 4)):
        tag = f"n{counter[0]}"
        counter[0] += 1
        parts.append(f"<{tag}>{rng.choice(_VALUES)}</{tag}>")
    return "<r>" + "".join(parts) + "</r>"


def _make_fragment(rng: random.Random, counter: list[int]) -> str:
    tag = f"n{counter[0]}"
    counter[0] += 1
    value = rng.choice(_VALUES)
    if rng.random() < 0.3:
        inner_tag = f"n{counter[0]}"
        counter[0] += 1
        inner = f"<{inner_tag}>{rng.choice(_VALUES)}</{inner_tag}>"
        return f"<{tag} a=\"{rng.choice(_VALUES)}\">{value}{inner}</{tag}>"
    return f"<{tag}>{value}</{tag}>"


def _generate_schedule(seed: int):
    """(document_xml, ops, probe_tags, expected_states).

    ``expected_states[i]`` is the twin's observable state after the
    first ``i`` ops (index 0 = right after load).
    """
    rng = random.Random(seed)
    counter = [0]
    document_xml = _make_document(rng, counter)
    twin = Database()
    twin.load(document_xml, uri=URI)

    ops = []
    probe_tags = set()
    while len(ops) < OPS_PER_SCHEDULE:
        root = twin.document(URI).node_for(0).root
        elements = _elements(root, [root])
        deletable = [e for e in elements
                     if isinstance(e.parent, model.Element)]
        if deletable and rng.random() < 0.4:
            victim = rng.choice(deletable)
            op = ("delete", f"//{victim.tag}")
            twin.delete(op[1])
        else:
            parent = rng.choice(elements)
            fragment = _make_fragment(rng, counter)
            path = "/r" if parent == root else f"//{parent.tag}"
            op = ("insert", path, fragment)
            twin.insert(path, fragment)
        ops.append(op)

    # Probe everything any prefix ever contained.
    final_rng = random.Random(seed + 1)
    probe_tags = {f"n{i}" for i in
                  final_rng.sample(range(counter[0]),
                                   min(4, counter[0]))} | {"r"}

    # Re-run the twin from scratch capturing per-prefix states.
    twin = Database()
    twin.load(document_xml, uri=URI)
    states = [_observe(twin, probe_tags)]
    for op in ops:
        _apply(twin, op)
        states.append(_observe(twin, probe_tags))
    return document_xml, ops, sorted(probe_tags), states


def _apply(db: Database, op) -> None:
    if op[0] == "insert":
        db.insert(op[1], op[2])
    else:
        db.delete(op[1])


def _observe(db: Database, probe_tags) -> dict:
    state = {"xml": serialize(db.document(URI).node_for(0))}
    for tag in sorted(probe_tags):
        result = db.query(f"//{tag}")
        state[tag] = (len(result), result.values())
    return state


# -- crash-point enumeration ------------------------------------------------------


def _crash_offsets(boundaries: list[int]):
    """(wal_byte_length, expected_prefix_index) pairs covering every
    record boundary plus torn offsets inside every record."""
    points = [(len(WAL_MAGIC), 0)]
    previous = len(WAL_MAGIC)
    for index, boundary in enumerate(boundaries):
        # Torn crashes inside record ``index`` roll back to prefix
        # ``index`` (the record is truncated away).
        torn = {previous + 1, (previous + boundary) // 2, boundary - 1}
        for offset in sorted(torn):
            if previous < offset < boundary:
                points.append((offset, index))
        points.append((boundary, index + 1))
        previous = boundary
    return points


def _write_crash(live: Path, crash: Path, wal_name: str,
                       offset: int) -> None:
    if crash.exists():
        shutil.rmtree(crash)
    crash.mkdir(parents=True)
    for entry in live.iterdir():
        if entry.name == wal_name:
            crash.joinpath(entry.name).write_bytes(
                entry.read_bytes()[:offset])
        else:
            shutil.copy2(entry, crash / entry.name)


# -- the property test ------------------------------------------------------------


@pytest.mark.parametrize("seed", range(SCHEDULES))
def test_recovery_matches_never_crashed_twin(seed, tmp_path):
    document_xml, ops, probe_tags, expected = _generate_schedule(seed)

    live = tmp_path / "live"
    db = Database.open(live, checkpoint_every=0)
    db.load(document_xml, uri=URI)
    for op in ops:
        _apply(db, op)
    db.close()

    # The load checkpointed into generation 1; every op is in its WAL.
    wal_name = "wal-00000001.log"
    records, _, boundaries = read_records(live / wal_name)
    assert len(records) == len(ops)

    crash = tmp_path / "crash"
    for offset, prefix in _crash_offsets(boundaries):
        _write_crash(live, crash, wal_name, offset)
        recovered = Database.open(crash, debug_checks=True)
        try:
            assert _observe(recovered, probe_tags) == expected[prefix], \
                f"seed={seed} crash at wal byte {offset} != prefix {prefix}"
        finally:
            recovered.close()


def test_reopen_after_clean_close(tmp_path):
    """No crash at all: close + reopen restores the final state."""
    document_xml, ops, probe_tags, expected = _generate_schedule(10_001)
    db = Database.open(tmp_path / "db")
    db.load(document_xml, uri=URI)
    for op in ops:
        _apply(db, op)
    final = _observe(db, probe_tags)
    db.close()
    assert final == expected[-1]

    again = Database.open(tmp_path / "db", debug_checks=True)
    try:
        assert _observe(again, probe_tags) == final
    finally:
        again.close()


def test_recovery_across_checkpoints(tmp_path):
    """Auto-checkpoints mid-schedule: crashing after the last op (torn
    nothing) still recovers the final state through snapshot + suffix
    replay, and old generations are pruned."""
    document_xml, ops, probe_tags, expected = _generate_schedule(10_002)
    live = tmp_path / "db"
    db = Database.open(live, checkpoint_every=2)
    db.load(document_xml, uri=URI)
    for op in ops:
        _apply(db, op)
    report = db.durability_report()
    assert report["checkpoints_written"] >= 2  # load + at least one auto
    db.close()

    recovered = Database.open(live, debug_checks=True)
    try:
        assert _observe(recovered, probe_tags) == expected[-1]
    finally:
        recovered.close()


def test_crash_during_initial_load(tmp_path):
    """A crash while logging the load record itself recovers to either
    the empty database (torn record truncated) or the full load."""
    live = tmp_path / "db"
    db = Database.open(live, checkpoint_every=0)
    db.load("<r><a>x</a></r>", uri=URI)
    db.close()

    wal0 = live / "wal-00000000.log"
    payload = wal0.read_bytes()
    records, _, boundaries = read_records(wal0)
    assert len(records) == 1

    crash = tmp_path / "crash"
    for offset in (len(WAL_MAGIC), len(WAL_MAGIC) + 5,
                   boundaries[0] - 1, boundaries[0]):
        if crash.exists():
            shutil.rmtree(crash)
        crash.mkdir()
        # Only the WAL existed at that instant (snapshot publication
        # happens after the load record): simulate by omitting it.
        crash.joinpath(wal0.name).write_bytes(payload[:offset])
        recovered = Database.open(crash, debug_checks=True)
        try:
            if offset == boundaries[0]:
                assert recovered.query("//a", uri=URI).values() == ["x"]
            else:
                assert recovered.documents == {}
        finally:
            recovered.close()
