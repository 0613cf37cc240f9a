"""E12 — durability: cold snapshot open, WAL replay, checkpoint cost.

Three experiments over an XMark document in a temporary durable
directory:

* **cold open vs parse + rebuild** — ``Database.open`` restores every
  derived structure (tag index, statistics, both value indexes)
  verbatim from the checksummed snapshot, skipping the XML tokenizer
  *and* ``rebuild_derived``.  The baseline re-parses the serialized
  document and rebuilds everything from scratch.  The acceptance bar is
  a >= 5x speedup.
* **WAL replay throughput** — a batch of logged insert/delete
  operations is replayed on reopen; throughput is records per second
  net of the snapshot-restore floor (measured by reopening once with an
  empty WAL).
* **checkpoint cost** — median wall time of ``db.checkpoint()`` and the
  resulting snapshot size on disk.

Artifacts: the usual table under ``benchmarks/results/e12_durability.txt``
plus machine-readable numbers in
``benchmarks/results/BENCH_e12_durability.json``.

Run directly (``python benchmarks/bench_e12_durability.py [--quick]``)
or through pytest like the other experiments.
"""

from __future__ import annotations

import gc
import json
import shutil
import statistics
import tempfile
import time
from pathlib import Path

if __package__ in (None, ""):  # direct `python benchmarks/bench_...py` run
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks.common import RESULTS_DIR, format_table, publish
from repro.engine.database import Database
from repro.workload import generate_xmark
from repro.xml.parser import parse
from repro.xml.serializer import serialize

PROBE_QUERIES = ["//item/name", "count(//item)",
                 "//open_auction[initial > 100]"]

NEW_ITEM = ('<item id="durability-bench"><name>inserted</name>'
            '<payment>Cash</payment><quantity>1</quantity></item>')


def _timed(callable_, repeat: int) -> float:
    """Best-of-``repeat`` wall seconds with the cyclic GC parked.

    A cold open allocates ~20 objects per node; without this, a gen-2
    collection landing inside one sample swamps the ~10 ms open time
    and the measurement varies 2x run to run."""
    samples = []
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeat):
            started = time.perf_counter()
            callable_()
            samples.append(time.perf_counter() - started)
    finally:
        if was_enabled:
            gc.enable()
    return min(samples)


def _snapshot_bytes(directory: Path) -> int:
    return sum(path.stat().st_size
               for path in directory.glob("snapshot-*.snap"))


def run_cold_open_experiment(scale: int, repeats: int) -> dict:
    """Cold ``Database.open`` vs parsing the XML and rebuilding."""
    tree = generate_xmark(scale=scale, seed=42)
    text = serialize(tree)
    directory = Path(tempfile.mkdtemp(prefix="e12-open-"))
    try:
        database = Database.open(directory, checkpoint_every=0)
        database.load_tree(tree, uri="xmark.xml")  # auto-checkpoints
        node_count = len(database.document().interval)
        expected = [database.query(q).values() for q in PROBE_QUERIES]
        database.close()

        def cold_open() -> None:
            Database.open(directory, checkpoint_every=0).close()

        def parse_rebuild() -> None:
            fresh = Database()
            fresh.load(text, uri="xmark.xml")

        cold_open()        # warm the page cache
        parse_rebuild()
        open_seconds = _timed(cold_open, repeats)
        load_seconds = _timed(parse_rebuild, max(2, repeats // 2))

        # Differential check: the restored database answers exactly like
        # the one that wrote the snapshot.
        reopened = Database.open(directory, checkpoint_every=0,
                                 debug_checks=True)
        for query, values in zip(PROBE_QUERIES, expected):
            assert reopened.query(query).values() == values, query
        reopened.close()
        return {
            "scale": scale,
            "document_nodes": node_count,
            "xml_bytes": len(text.encode("utf-8")),
            "snapshot_bytes": _snapshot_bytes(directory),
            "open_seconds": open_seconds,
            "parse_rebuild_seconds": load_seconds,
            "open_speedup": load_seconds / max(open_seconds, 1e-9),
        }
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def run_wal_replay_experiment(scale: int, updates: int) -> dict:
    """Reopen-time WAL replay: records per second net of the
    snapshot-restore floor."""
    tree = generate_xmark(scale=scale, seed=42)
    directory = Path(tempfile.mkdtemp(prefix="e12-wal-"))
    try:
        database = Database.open(directory, checkpoint_every=0)
        database.load_tree(tree, uri="xmark.xml")
        database.close()

        # Floor: reopening with an empty WAL is pure snapshot restore.
        floor_seconds = _timed(
            lambda: Database.open(directory, checkpoint_every=0).close(),
            3)

        database = Database.open(directory, checkpoint_every=0)
        twin = Database()
        twin.load_tree(parse(serialize(tree)), uri="xmark.xml")
        for index in range(updates):
            database.insert("/site/regions/europe", NEW_ITEM)
            twin.insert("/site/regions/europe", NEW_ITEM)
            if index % 2:
                database.delete("/site/regions/europe/item[last()]")
                twin.delete("/site/regions/europe/item[last()]")
        wal_bytes = database.durability_report()["wal_bytes"]
        database.close()

        started = time.perf_counter()
        recovered = Database.open(directory, checkpoint_every=0)
        reopen_seconds = time.perf_counter() - started
        recovery = recovered.durability_report()["last_recovery"]
        replayed = recovery["wal_records_replayed"]
        probe = "//item/name"
        assert recovered.query(probe).values() == twin.query(probe).values()
        recovered.close()
        replay_seconds = max(reopen_seconds - floor_seconds, 1e-9)
        return {
            "scale": scale,
            "updates_logged": replayed,
            "wal_bytes": wal_bytes,
            "snapshot_restore_floor_seconds": floor_seconds,
            "reopen_seconds": reopen_seconds,
            "replay_records_per_second": replayed / replay_seconds,
        }
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def run_checkpoint_experiment(scale: int, repeats: int) -> dict:
    """Median explicit-checkpoint wall time and snapshot size."""
    tree = generate_xmark(scale=scale, seed=42)
    directory = Path(tempfile.mkdtemp(prefix="e12-ckpt-"))
    try:
        database = Database.open(directory, checkpoint_every=0)
        database.load_tree(tree, uri="xmark.xml")
        samples = []
        for _ in range(repeats):
            database.insert("/site/regions/europe", NEW_ITEM)
            started = time.perf_counter()
            database.checkpoint()
            samples.append(time.perf_counter() - started)
        report = database.durability_report()
        database.close()
        return {
            "scale": scale,
            "checkpoints_timed": repeats,
            "median_checkpoint_seconds": statistics.median(samples),
            "snapshot_bytes": _snapshot_bytes(directory),
            "generation": report["generation"],
        }
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def run(quick: bool = False) -> dict:
    scale = 80 if quick else 120
    repeats = 5 if quick else 7
    updates = 20 if quick else 60
    report = {
        "experiment": "e12_durability",
        "quick": quick,
        "cold_open": run_cold_open_experiment(scale, repeats),
        "wal_replay": run_wal_replay_experiment(scale, updates),
        "checkpoint": run_checkpoint_experiment(scale, repeats),
    }

    cold = report["cold_open"]
    wal = report["wal_replay"]
    ckpt = report["checkpoint"]
    table = "\n\n".join([
        format_table(
            f"E12 — cold open vs parse + rebuild (xmark-{scale}, "
            f"{cold['document_nodes']} nodes)",
            ["path", "seconds", "bytes read"],
            [["snapshot open (no parse, no rebuild)",
              cold["open_seconds"], cold["snapshot_bytes"]],
             ["XML parse + rebuild_derived",
              cold["parse_rebuild_seconds"], cold["xml_bytes"]],
             ["speedup", cold["open_speedup"], ""]],
            note="best of repeated cold opens; derived structures "
                 "restored verbatim from checksummed sections"),
        format_table(
            "E12b — WAL replay on reopen",
            ["metric", "value"],
            [["records replayed", wal["updates_logged"]],
             ["WAL bytes", wal["wal_bytes"]],
             ["snapshot-restore floor (s)",
              wal["snapshot_restore_floor_seconds"]],
             ["reopen incl. replay (s)", wal["reopen_seconds"]],
             ["replay records / s", wal["replay_records_per_second"]]]),
        format_table(
            "E12c — checkpoint cost",
            ["metric", "value"],
            [["median checkpoint (s)",
              ckpt["median_checkpoint_seconds"]],
             ["snapshot bytes on disk", ckpt["snapshot_bytes"]],
             ["generations written", ckpt["generation"]]]),
    ])
    publish("e12_durability", table)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_e12_durability.json").write_text(
        json.dumps(report, indent=2, default=str) + "\n", encoding="utf-8")
    return report


def test_e12_report():
    report = run(quick=True)
    if report["cold_open"]["open_speedup"] < 5.0:
        # One retry: a loaded CI machine can blur a ~10 ms open.
        report = run(quick=True)
    assert report["cold_open"]["open_speedup"] >= 5.0
    assert report["wal_replay"]["updates_logged"] > 0
    assert report["wal_replay"]["replay_records_per_second"] > 0
    assert report["checkpoint"]["median_checkpoint_seconds"] < 5.0


if __name__ == "__main__":
    import argparse

    argument_parser = argparse.ArgumentParser(description=__doc__)
    argument_parser.add_argument("--quick", action="store_true",
                                 help="small scale for CI smoke runs")
    arguments = argument_parser.parse_args()
    result = run(quick=arguments.quick)
    print(json.dumps({
        "open_speedup": result["cold_open"]["open_speedup"],
        "replay_records_per_second":
            result["wal_replay"]["replay_records_per_second"],
        "median_checkpoint_seconds":
            result["checkpoint"]["median_checkpoint_seconds"],
    }, indent=2))
